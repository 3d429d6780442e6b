// Package client is the Go client for the resoptd /v1 API. It speaks
// exclusively in internal/api wire types, so anything the server can
// say, the client can decode — and a round trip through both proves
// the contract. Used by `resopt -remote` and by the CI smoke driver.
//
//	c, _ := client.New("http://localhost:8080", nil)
//	res, err := c.Optimize(ctx, api.OptimizeRequest{Example: "matmul"})
//	sum, err := c.Batch(ctx, api.BatchSpec{Random: 20}, func(l api.BatchLine) error { ... })
//	job, err := c.SubmitJob(ctx, api.BatchSpec{Deep: 50})
//	job, err = c.WaitJob(ctx, job.ID, 0)
//	results, err := c.JobResults(ctx, job.ID)
//
// Every non-2xx response decodes into *api.Error, so callers can
// switch on err's Code (rate_limited, not_found, ...) via errors.As.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/trace"
)

// Client talks to one resoptd instance.
type Client struct {
	base    *url.URL
	hc      *http.Client
	retries int
	headers http.Header
	// sleep is the retry-backoff clock (tests substitute a recorder).
	sleep func(context.Context, time.Duration) error
}

// Option configures a Client at construction.
type Option func(*Client)

// WithRetry enables bounded retry: up to max extra attempts per
// request on 429 (honoring Retry-After), transient 5xx (502, 503,
// 504) and connection errors, with exponential backoff plus jitter
// between attempts. Retries are off by default — interactive callers
// usually prefer the first error — and are used by the cluster
// router and resopt -remote failover.
func WithRetry(max int) Option {
	return func(c *Client) { c.retries = max }
}

// WithHeader adds a static header to every request the client sends
// (e.g. the cluster forward marker).
func WithHeader(key, value string) Option {
	return func(c *Client) {
		if c.headers == nil {
			c.headers = http.Header{}
		}
		c.headers.Set(key, value)
	}
}

// New builds a client for the daemon at baseURL (e.g.
// "http://localhost:8080"). hc == nil uses a default http.Client;
// timeouts and cancellation come from the per-call contexts either
// way, so the default client has no global timeout (batch streams
// and long polls would trip it).
func New(baseURL string, hc *http.Client, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	if hc == nil {
		hc = &http.Client{}
	}
	c := &Client{base: u, hc: hc, sleep: sleepCtx}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// BaseURL returns the client's target, as given to New.
func (c *Client) BaseURL() string { return c.base.String() }

// do issues one request; out (when non-nil) receives the decoded 2xx
// body. Non-2xx responses return *api.Error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return err
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return nil, fmt.Errorf("client: encoding %s %s request: %w", method, path, err)
		}
	}
	return c.sendRaw(ctx, method, path, data, "application/json")
}

// sendRaw issues one request from rebuildable bytes (nil data: no
// body), retrying per the WithRetry policy: connection errors, 429
// and transient 5xx are retried with exponential backoff + jitter,
// and a 429's Retry-After (delay-seconds form) takes precedence over
// the computed backoff when longer.
func (c *Client) sendRaw(ctx context.Context, method, path string, data []byte, contentType string) (*http.Response, error) {
	u := *c.base
	// A query string rides along after '?' (it must not be folded into
	// u.Path, where the '?' would be percent-escaped).
	if i := strings.IndexByte(path, '?'); i >= 0 {
		u.RawQuery = path[i+1:]
		path = path[:i]
	}
	u.Path = strings.TrimRight(u.Path, "/") + path
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if data != nil {
			body = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, u.String(), body)
		if err != nil {
			return nil, err
		}
		if data != nil {
			req.Header.Set("Content-Type", contentType)
		}
		for k, vs := range c.headers {
			req.Header[k] = vs
		}
		// Propagate the caller's trace (minting one if the context has no
		// active span) so the server-side trace joins this process's.
		req.Header.Set(trace.Header, trace.OutgoingTraceparent(ctx))
		resp, err := c.hc.Do(req)
		if err != nil {
			if attempt < c.retries && ctx.Err() == nil {
				if c.sleep(ctx, retryDelay(attempt, 0)) == nil {
					continue
				}
			}
			return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		if attempt < c.retries && retryableStatus(resp.StatusCode) {
			delay := retryDelay(attempt, retryAfter(resp))
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if err := c.sleep(ctx, delay); err != nil {
				return nil, err
			}
			continue
		}
		return resp, nil
	}
}

// retryableStatus: the rate limiter's 429, plus the 5xx family that
// signals a transient condition rather than a broken request.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryBackoffBase is the first retry delay; each further attempt
// doubles it (capped at retryBackoffMax) before jitter.
const (
	retryBackoffBase = 100 * time.Millisecond
	retryBackoffMax  = 2 * time.Second
)

// retryDelay computes the pause before retry attempt+1: exponential
// backoff with up to 50% added jitter (decorrelating clients that
// were rate-limited together), raised to the server's Retry-After
// when that asks for more.
func retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	d := retryBackoffBase << attempt
	if d > retryBackoffMax || d <= 0 {
		d = retryBackoffMax
	}
	d += time.Duration(rand.Int64N(int64(d)/2 + 1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// retryAfter parses the delay-seconds form of a Retry-After header
// (what resoptd sends); absent or unparsable reads as zero.
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// sleepCtx pauses for d or until ctx dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// responseError maps a non-2xx response to its typed *api.Error,
// synthesizing one when the body is not a well-formed envelope. The
// server's Trace-Id header is folded into the error so failure
// reports can name the server-side trace.
func responseError(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var ae *api.Error
	var env api.ErrorEnvelope
	if json.Unmarshal(body, &env) == nil && env.Error != nil {
		ae = env.Error
	} else {
		ae = api.Errorf(resp.StatusCode, api.CodeInternal, "unexpected response: %s", bytes.TrimSpace(body))
	}
	if ae.TraceID == "" {
		ae.TraceID = resp.Header.Get("Trace-Id")
	}
	return ae
}

// Optimize runs one nest synchronously.
func (c *Client) Optimize(ctx context.Context, req api.OptimizeRequest) (*api.OptimizeResponse, error) {
	var out api.OptimizeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/optimize", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch streams a synchronous batch run: emit (when non-nil) is
// called once per NDJSON result line, in suite order, as the server
// produces them; the trailing summary is returned. A non-nil error
// from emit aborts the stream (and, by closing the body, cancels the
// server-side run at the next scenario boundary).
func (c *Client) Batch(ctx context.Context, spec api.BatchSpec, emit func(api.BatchLine) error) (*api.BatchSummary, error) {
	resp, err := c.send(ctx, http.MethodPost, "/v1/batch", spec)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxStreamLine)
	var sum *api.BatchSummary
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary"`)) {
			var s api.BatchSummary
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("client: decoding batch summary: %w", err)
			}
			sum = &s
			continue
		}
		var l api.BatchLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("client: decoding batch line: %w", err)
		}
		if emit != nil {
			if err := emit(l); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading batch stream: %w", err)
	}
	if sum == nil {
		return nil, fmt.Errorf("client: batch stream ended without a summary line")
	}
	return sum, nil
}

// maxStreamLine bounds one NDJSON line of a batch or lattice stream.
// The scanner's buffer starts small and grows only to the longest
// line a stream actually carries.
const maxStreamLine = 1 << 20

// Lattice streams a capacity-planning sweep: emit (when non-nil) is
// called once per NDJSON row, in grid order (machines as declared,
// payloads ascending), as the server produces them; the trailing
// summary is returned. A non-nil error from emit aborts the stream.
func (c *Client) Lattice(ctx context.Context, req api.LatticeRequest, emit func(api.LatticeRow) error) (*api.LatticeSummary, error) {
	resp, err := c.send(ctx, http.MethodPost, "/v1/lattice", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxStreamLine)
	var sum *api.LatticeSummary
	// One row is decoded into throughout: DecodeLatticeRow reuses the
	// strings that repeat from row to row.
	var row api.LatticeRow
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary"`)) {
			var s api.LatticeSummary
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("client: decoding lattice summary: %w", err)
			}
			sum = &s
			continue
		}
		if err := api.DecodeLatticeRow(line, &row); err != nil {
			return nil, fmt.Errorf("client: decoding lattice row: %w", err)
		}
		if emit != nil {
			if err := emit(row); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading lattice stream: %w", err)
	}
	if sum == nil {
		return nil, fmt.Errorf("client: lattice stream ended without a summary line")
	}
	return sum, nil
}

// SubmitJob submits a batch spec as an async job.
func (c *Client) SubmitJob(ctx context.Context, spec api.BatchSpec) (*api.Job, error) {
	var out api.Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job polls one job.
func (c *Client) Job(ctx context.Context, id string) (*api.Job, error) {
	var out api.Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists the server's jobs, most recent first.
func (c *Client) Jobs(ctx context.Context) ([]api.Job, error) {
	var out api.JobList
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// CancelJob cancels a queued or running job (a no-op on finished
// ones) and returns the job's state after the request.
func (c *Client) CancelJob(ctx context.Context, id string) (*api.Job, error) {
	var out api.Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls until the job finishes (or ctx dies). poll ≤ 0
// defaults to 100ms. A rate-limited poll is not a failure: it is
// retried at the same poll interval, so pick a poll comfortably above
// 1/rate when the server runs with -rate.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*api.Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		job, err := c.Job(ctx, id)
		switch {
		case err == nil:
			if job.Status.Finished() {
				return job, nil
			}
		default:
			var ae *api.Error
			if !errors.As(err, &ae) || ae.Code != api.CodeRateLimited {
				return nil, err
			}
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// JobResults fetches a finished job's full results.
func (c *Client) JobResults(ctx context.Context, id string) (*api.JobResults, error) {
	var out api.JobResults
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/results", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshots lists the server's stored snapshots.
func (c *Client) Snapshots(ctx context.Context) ([]api.SnapshotInfo, error) {
	var out api.SnapshotList
	if err := c.do(ctx, http.MethodGet, "/v1/snapshots", nil, &out); err != nil {
		return nil, err
	}
	return out.Snapshots, nil
}

// Stats fetches the server counters.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var out api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClusterStats fetches the fleet-wide stats aggregation: every
// member's /v1/stats snapshot (down peers marked unreachable) plus the
// rollup. On an unclustered daemon the members list holds just that
// daemon.
func (c *Client) ClusterStats(ctx context.Context) (*api.ClusterStatsResponse, error) {
	var out api.ClusterStatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/cluster/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz checks the daemon's liveness endpoint — the cluster health
// prober's probe function.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// FetchTrace retrieves a peer's locally recorded span set for one
// trace ID (the cluster-internal half of distributed trace assembly;
// ?local=1 stops the peer from fanning out in turn). A peer whose ring
// no longer holds the trace answers 404, surfaced as *api.Error with
// CodeNotFound.
func (c *Client) FetchTrace(ctx context.Context, id string) (*trace.TraceData, error) {
	var out trace.TraceData
	if err := c.do(ctx, http.MethodGet, "/debug/traces/"+url.PathEscape(id)+"?local=1", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FetchMetrics retrieves a peer's raw /metrics exposition — the
// federation endpoint's per-node fetch.
func (c *Client) FetchMetrics(ctx context.Context) ([]byte, error) {
	resp, err := c.sendRaw(ctx, http.MethodGet, "/metrics/peer", nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return nil, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}

// FetchPlan retrieves a peer's stored plan by content address
// (store.PlanAddr of the canonical key). A peer that does not hold
// the plan answers 404, surfaced as *api.Error with CodeNotFound.
func (c *Client) FetchPlan(ctx context.Context, addr string) (*api.PlanExport, error) {
	var out api.PlanExport
	if err := c.do(ctx, http.MethodGet, "/v1/plans/"+url.PathEscape(addr), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PushPlan replicates a plan to a peer under its content address.
func (c *Client) PushPlan(ctx context.Context, addr string, plan *api.PlanExport) error {
	return c.do(ctx, http.MethodPut, "/v1/plans/"+url.PathEscape(addr), plan, nil)
}

// PushSnapshot replicates a recorded snapshot's exact bytes to a
// peer, preserving the byte-identical re-run guarantee across nodes.
func (c *Client) PushSnapshot(ctx context.Context, name string, data []byte) error {
	resp, err := c.sendRaw(ctx, http.MethodPut, "/v1/snapshots/"+url.PathEscape(name), data, "application/json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
