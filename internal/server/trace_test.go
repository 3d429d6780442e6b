package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/store"
	"repro/internal/trace"
)

// getTrace fetches one recorded trace from the ops listener and
// returns its span tree flattened into a name → spans index.
func getTrace(t *testing.T, ops *httptest.Server, id string) (traceDetail, map[string][]*trace.SpanNode) {
	t.Helper()
	resp, err := ops.Client().Get(ops.URL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: status %d", id, resp.StatusCode)
	}
	var td traceDetail
	if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	byName := map[string][]*trace.SpanNode{}
	var walk func(ns []*trace.SpanNode)
	walk = func(ns []*trace.SpanNode) {
		for _, n := range ns {
			byName[n.Name] = append(byName[n.Name], n)
			walk(n.Children)
		}
	}
	walk(td.Spans)
	return td, byName
}

// TestOptimizeTraced is the acceptance scenario over HTTP: a cold
// /v1/optimize yields a retrievable trace whose scenario span has
// alignment, kernel and store-lookup children with non-zero durations
// and names the chosen collectives, and the response carries the same
// phase breakdown; the warm re-run is served from memory.
func TestOptimizeTraced(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Options{Workers: 2, Store: st})
	ops := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ops.Close)

	// example1 has a broadcast, so collective selection runs.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "example1", Machine: "fattree32"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(TraceHeader)
	if len(id) != 32 {
		t.Fatalf("Trace-Id header %q, want a 32-hex trace ID", id)
	}
	var out api.OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Phases == nil {
		t.Fatal("cold response has no phase breakdown")
	}
	if out.Phases.PlanSource != "compute" || out.Phases.TotalUs <= 0 || out.Phases.KernelOps <= 0 {
		t.Fatalf("cold phases %+v", out.Phases)
	}

	td, spans := getTrace(t, ops, id)
	if td.TraceID != id || len(td.Spans) != 1 || td.Spans[0].Name != "http" {
		t.Fatalf("trace %s: %d roots, first %q", id, len(td.Spans), td.Spans[0].Name)
	}
	for _, name := range []string{"scenario", "store.lookup", "optimize", "alignment", "kernel"} {
		ns := spans[name]
		if len(ns) == 0 {
			t.Fatalf("trace has no %q span; got %v", name, keys(spans))
		}
		for _, n := range ns {
			if n.DurationUs <= 0 {
				t.Errorf("%s span has zero duration", name)
			}
		}
	}
	if got := spans["scenario"][0].Attrs["plan_source"]; got != "compute" {
		t.Errorf("scenario plan_source %q", got)
	}
	if got := spans["store.lookup"][0].Attrs["result"]; got != "miss" {
		t.Errorf("cold store.lookup result %q", got)
	}
	if got := spans["scenario"][0].Attrs["collectives"]; got == "" || got != out.Collectives {
		t.Errorf("cold scenario collectives %q, response %q", got, out.Collectives)
	}

	// Warm re-run: plan cache hit, no optimize span.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "example1", Machine: "fattree32"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm optimize status %d: %s", resp.StatusCode, body)
	}
	var warm api.OptimizeResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Phases == nil || warm.Phases.PlanSource != "memory" {
		t.Fatalf("warm phases %+v", warm.Phases)
	}
	_, spans = getTrace(t, ops, resp.Header.Get(TraceHeader))
	if len(spans["optimize"]) != 0 {
		t.Error("warm run re-ran the optimizer")
	}
	if got := spans["scenario"][0].Attrs["collectives"]; got != out.Collectives {
		t.Errorf("warm scenario collectives %q, want %q", got, out.Collectives)
	}

	// The listing shows both traces, newest first; min filters.
	lresp, err := ops.Client().Get(ops.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list traceListResponse
	err = json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if err != nil || list.Held < 2 || list.Total < 2 || len(list.Traces) < 2 {
		t.Fatalf("trace listing: err %v, %+v", err, list)
	}
	lresp, err = ops.Client().Get(ops.URL + "/debug/traces?min=10h")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if err != nil || len(list.Traces) != 0 {
		t.Fatalf("min=10h listing not empty: err %v, %d traces", err, len(list.Traces))
	}
}

func keys(m map[string][]*trace.SpanNode) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceparentPropagation: a valid inbound W3C traceparent is
// adopted as the request's trace ID; a malformed one is ignored and a
// fresh root minted.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	const inbound = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize",
		strings.NewReader(`{"example":"matmul"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+inbound+"-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != inbound {
		t.Errorf("valid traceparent not adopted: Trace-Id %q, want %q", got, inbound)
	}

	for _, bad := range []string{"not-a-traceparent", "00-" + inbound, "00-zzzz-0123456789abcdef-01"} {
		req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize",
			strings.NewReader(`{"example":"matmul"}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("traceparent", bad)
		resp, err = ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get(TraceHeader)
		if got == inbound || len(got) != 32 {
			t.Errorf("traceparent %q: Trace-Id %q, want a fresh 32-hex ID", bad, got)
		}
	}
}

// TestBatchTimings: phase breakdowns appear on NDJSON lines only when
// the spec opts in, so the default stream stays byte-deterministic.
func TestBatchTimings(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	spec := api.BatchSpec{Seed: 11, Random: 2, NoExamples: true}
	lines, _ := batchNDJSON(t, ts, spec)
	for _, ln := range lines {
		if strings.Contains(ln, `"phases"`) {
			t.Fatalf("phases on a line without timings:true: %s", ln)
		}
	}

	spec.Timings = true
	lines, _ = batchNDJSON(t, ts, spec)
	if len(lines) == 0 {
		t.Fatal("no batch lines")
	}
	for _, ln := range lines {
		var bl api.BatchLine
		if err := json.Unmarshal([]byte(ln), &bl); err != nil {
			t.Fatal(err)
		}
		if bl.Phases == nil || bl.Phases.TotalUs <= 0 || bl.Phases.PlanSource == "" {
			t.Fatalf("timings:true line missing phases: %s", ln)
		}
	}
}

// TestErrorCarriesTraceID: error envelopes echo the request's trace
// ID so a failure report can be matched to its recorded trace.
func TestErrorCarriesTraceID(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "no-such-example"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Error api.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.TraceID == "" || env.Error.TraceID != resp.Header.Get(TraceHeader) {
		t.Errorf("error trace_id %q, header %q", env.Error.TraceID, resp.Header.Get(TraceHeader))
	}
}

// TestJobTraceID: async jobs mint their own root trace, returned in
// the 202 body so the submitter can follow the background work.
func TestJobTraceID(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	ops := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ops.Close)

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", api.BatchSpec{Seed: 5, Random: 1, NoExamples: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var job api.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if len(job.TraceID) != 32 {
		t.Fatalf("job trace_id %q, want a 32-hex trace ID", job.TraceID)
	}
	if job.TraceID == resp.Header.Get(TraceHeader) {
		t.Error("job root trace must be distinct from the submitting request's")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		jresp, jbody := getJSON(t, ts, "/v1/jobs/"+job.ID)
		if jresp.StatusCode != http.StatusOK {
			t.Fatalf("job get status %d", jresp.StatusCode)
		}
		if err := json.Unmarshal(jbody, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status.Finished() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Status != api.JobDone {
		t.Fatalf("job finished %q", job.Status)
	}

	_, spans := getTrace(t, ops, job.TraceID)
	if len(spans["job"]) != 1 || len(spans["scenario"]) == 0 {
		t.Fatalf("job trace spans: %v", keys(spans))
	}
	if got := spans["job"][0].Attrs["status"]; got != string(api.JobDone) {
		t.Errorf("job span status %q", got)
	}
}

// getJSON is a small GET helper mirroring postJSON.
func getJSON(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestStatsPhaseTotals: /v1/stats aggregates the session's phase
// attribution.
func TestStatsPhaseTotals(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "matmul"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d: %s", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats api.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Phases.Scenarios == 0 || stats.Phases.TotalUs <= 0 || stats.Phases.ComputeUs <= 0 {
		t.Fatalf("stats phases %+v", stats.Phases)
	}
}
