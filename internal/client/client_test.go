package client_test

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	. "repro/internal/client"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
)

// startServer spins a real server (engine session and all) behind an
// httptest listener and a client pointed at it.
func startServer(t *testing.T, opts server.Options) *Client {
	t.Helper()
	srv := server.New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRoundTripEveryEndpoint drives every /v1 endpoint through the Go
// client against a live server: optimize, batch (with save-as),
// snapshot listing, snapshot re-run (byte-identical + clean diff),
// the whole job lifecycle, and stats. This is the satellite
// acceptance test for the client↔server contract.
func TestRoundTripEveryEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := startServer(t, server.Options{Workers: 2, Store: st})
	ctx := context.Background()

	// POST /v1/optimize
	opt, err := c.Optimize(ctx, api.OptimizeRequest{Example: "matmul", Machine: "mesh4x4"})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if opt.Name != "matmul" || opt.Machine != "mesh4x4" ||
		opt.Local+opt.Macro+opt.Decomposed+opt.General == 0 {
		t.Errorf("Optimize response %+v", opt)
	}

	// POST /v1/batch with save_as
	spec := api.BatchSpec{Seed: 9, Random: 2, NoExamples: true, SaveAs: "rt-suite"}
	var lines []api.BatchLine
	sum, err := c.Batch(ctx, spec, func(l api.BatchLine) error { lines = append(lines, l); return nil })
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(lines) != sum.Summary.Scenarios || sum.Summary.Scenarios == 0 {
		t.Fatalf("batch streamed %d lines, summary %+v", len(lines), sum.Summary)
	}
	if sum.Summary.Snapshot != "rt-suite" {
		t.Errorf("batch not recorded: %+v", sum.Summary)
	}

	// GET /v1/snapshots
	snaps, err := c.Snapshots(ctx)
	if err != nil {
		t.Fatalf("Snapshots: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Name != "rt-suite" || !snaps[0].Rerunnable {
		t.Errorf("snapshots %+v", snaps)
	}

	// POST /v1/batch by snapshot name: byte-identical lines, clean diff.
	var rerun []api.BatchLine
	rerunSum, err := c.Batch(ctx, api.BatchSpec{Snapshot: "rt-suite"}, func(l api.BatchLine) error {
		rerun = append(rerun, l)
		return nil
	})
	if err != nil {
		t.Fatalf("Batch(snapshot): %v", err)
	}
	if !reflect.DeepEqual(lines, rerun) {
		t.Errorf("snapshot re-run differs:\n orig %+v\nrerun %+v", lines, rerun)
	}
	if d := rerunSum.Summary.Diff; d == nil || d.Regressions != 0 || d.Unchanged != len(lines) {
		t.Errorf("re-run diff %+v", rerunSum.Summary.Diff)
	}

	// POST /v1/jobs → GET /v1/jobs/{id} (via WaitJob) → GET results.
	job, err := c.SubmitJob(ctx, api.BatchSpec{Seed: 9, Random: 2, NoExamples: true})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if job.Status.Finished() {
		t.Fatalf("job born finished: %+v", job)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	job, err = c.WaitJob(waitCtx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if job.Status != api.JobDone {
		t.Fatalf("job %+v", job)
	}
	results, err := c.JobResults(ctx, job.ID)
	if err != nil {
		t.Fatalf("JobResults: %v", err)
	}
	// The async job ran the same spec as the synchronous batch: its
	// results must be identical (the engine is deterministic and the
	// suite resolver canonicalizes the spec).
	if !reflect.DeepEqual(results.Results, lines) {
		t.Errorf("job results differ from batch lines")
	}

	// GET /v1/jobs listing includes the job.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	found := false
	for _, j := range jobs {
		found = found || j.ID == job.ID
	}
	if !found {
		t.Errorf("job %s missing from listing %+v", job.ID, jobs)
	}

	// DELETE /v1/jobs/{id} on a finished job is a no-op echo.
	echoed, err := c.CancelJob(ctx, job.ID)
	if err != nil || echoed.Status != api.JobDone {
		t.Errorf("CancelJob(finished): %+v, %v", echoed, err)
	}

	// GET /v1/stats reflects the traffic.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Version != api.Version || stats.Requests.Optimize == 0 ||
		stats.Requests.Batch < 2 || stats.Requests.Jobs == 0 {
		t.Errorf("stats %+v", stats)
	}
	if stats.SuiteCache.Hits == 0 {
		t.Error("identical specs never hit the suite cache")
	}
	if stats.Store == nil {
		t.Error("store stats missing")
	}
}

// TestClientTypedErrors: non-2xx responses surface as *api.Error with
// the server's status and code.
func TestClientTypedErrors(t *testing.T) {
	c := startServer(t, server.Options{})
	ctx := context.Background()

	_, err := c.Optimize(ctx, api.OptimizeRequest{Example: "nope"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest || ae.Status != 400 {
		t.Errorf("Optimize(bad) error = %v", err)
	}
	if len(ae.TraceID) != 32 {
		t.Errorf("error trace_id %q, want the server's 32-hex trace ID", ae.TraceID)
	}

	if _, err := c.Job(ctx, "missing"); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Errorf("Job(missing) error = %v", err)
	}

	if _, err := c.Snapshots(ctx); !errors.As(err, &ae) || ae.Code != api.CodeNoStore {
		t.Errorf("Snapshots(no store) error = %v", err)
	}
}

// TestClientEmitAbort: an emit error aborts the stream client-side.
func TestClientEmitAbort(t *testing.T) {
	c := startServer(t, server.Options{Workers: 1})
	boom := errors.New("stop")
	n := 0
	_, err := c.Batch(context.Background(), api.BatchSpec{Seed: 2, Random: 4, NoExamples: true},
		func(api.BatchLine) error {
			if n++; n == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("Batch error = %v, want emit error", err)
	}
	if n != 1 {
		t.Errorf("emit called %d times after abort", n)
	}
}

// TestClientCancelMidBatch: cancelling the request context mid-stream
// returns promptly with a context error and the server's partial
// stream terminates cleanly (no summary, no hang).
func TestClientCancelMidBatch(t *testing.T) {
	c := startServer(t, server.Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := c.Batch(ctx, api.BatchSpec{Seed: 2, Random: 60, Deep: 5},
		func(api.BatchLine) error {
			if n++; n == 1 {
				cancel()
			}
			return nil
		})
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) && !isNetCancel(err) {
		t.Fatalf("cancelled batch error = %v", err)
	}
	// The shared session must still serve requests afterwards.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := c.Optimize(context.Background(), api.OptimizeRequest{Example: "matmul"}); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("session unhealthy after cancel: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// isNetCancel recognizes the net/http surface of a cancelled request
// body read (bufio.Scanner wraps the transport error, so fall back to
// the string form).
func isNetCancel(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) ||
		strings.Contains(err.Error(), "context canceled") ||
		strings.Contains(err.Error(), "request canceled"))
}

// TestClientTraceparent: every client request carries a W3C
// traceparent header — continuing the context's active span when
// there is one, minted fresh otherwise.
func TestClientTraceparent(t *testing.T) {
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Get("traceparent"))
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(4)
	ctx, span := trace.StartRoot(context.Background(), rec, "cli", "")
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	span.End()

	if len(got) != 2 {
		t.Fatalf("server saw %d requests", len(got))
	}
	for i, tp := range got {
		if _, _, ok := trace.ParseTraceparent(tp); !ok {
			t.Errorf("request %d traceparent %q does not parse", i, tp)
		}
	}
	if want := span.TraceID().String(); !strings.Contains(got[1], want) {
		t.Errorf("active span's trace %s not propagated: %q", want, got[1])
	}
}

// TestClientStreamLineBound: a stream line grows the scanner's buffer
// as far as it needs, up to 1 MiB, and a longer line fails the stream
// with bufio.ErrTooLong.
func TestClientStreamLineBound(t *testing.T) {
	var row string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(row + "\n" + `{"summary":{"name":"long","points":1}}` + "\n"))
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	lattice := func(collectives int) ([]api.LatticeRow, error) {
		row = `{"machine":"mesh4x4","collectives":"` + strings.Repeat("x", collectives) + `"}`
		var rows []api.LatticeRow
		_, err := c.Lattice(context.Background(), api.LatticeRequest{}, func(r api.LatticeRow) error {
			rows = append(rows, r)
			return nil
		})
		return rows, err
	}
	rows, err := lattice(200 << 10)
	if err != nil {
		t.Fatalf("200 KiB line: %v", err)
	}
	if len(rows) != 1 || len(rows[0].Collectives) != 200<<10 {
		t.Fatalf("200 KiB line: decoded %d rows", len(rows))
	}
	if _, err := lattice(1 << 20); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 1 MiB: err %v, want bufio.ErrTooLong", err)
	}
}
