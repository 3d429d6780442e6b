package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scenarios"
	"repro/internal/store"
)

// direct computes the reference answer for an example nest straight
// through core.Optimize, the way the acceptance criterion phrases it.
func direct(t *testing.T, prog *affine.Program, m int) api.OptimizeResponse {
	t.Helper()
	res, err := core.Optimize(prog, m, core.Options{})
	if err != nil {
		t.Fatalf("core.Optimize(%s): %v", prog.Name, err)
	}
	out := api.OptimizeResponse{Name: prog.Name}
	for _, pl := range res.Plans {
		switch pl.Class {
		case core.Local:
			out.Local++
		case core.MacroComm:
			out.Macro++
		case core.Decomposed:
			out.Decomposed++
		case core.General:
			out.General++
		}
		if pl.Vectorizable {
			out.Vectorizable++
		}
	}
	return out
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
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

// TestConcurrentOptimize is the acceptance scenario: ≥ 32 concurrent
// /v1/optimize requests (under -race in CI), each response identical
// to a direct core.Optimize call.
func TestConcurrentOptimize(t *testing.T) {
	examples := affine.AllExamples()
	// Reference answers first, from core.Optimize outside any session.
	want := make(map[string]api.OptimizeResponse, len(examples))
	for _, p := range examples {
		want[p.Name] = direct(t, p, 2)
	}

	srv := New(Options{Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := examples[c%len(examples)]
			data, _ := json.Marshal(api.OptimizeRequest{Example: p.Name})
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d", p.Name, resp.StatusCode)
				return
			}
			if v := resp.Header.Get(api.VersionHeader); v != api.Version {
				errs <- fmt.Errorf("%s: version header %q", p.Name, v)
				return
			}
			var got api.OptimizeResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				errs <- err
				return
			}
			w := want[p.Name]
			if got.Local != w.Local || got.Macro != w.Macro ||
				got.Decomposed != w.Decomposed || got.General != w.General ||
				got.Vectorizable != w.Vectorizable {
				errs <- fmt.Errorf("%s: server %+v ≠ direct %+v", p.Name, got, w)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.session.CacheStats()
	if st.PlanHits == 0 {
		t.Error("32 clients over few nests produced no shared plan-cache hits")
	}
}

// TestOptimizeNestSource: a nest given as nestlang source optimizes
// and costs like the equivalent scenario.
func TestOptimizeNestSource(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const nest = `
nest t {
  array a[2]
  array b[2]
  loop (i, j) {
    S: a[i, j] = f(b[j, i])
  }
}
`
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Nest: nest, Machine: "mesh4x4", N: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got api.OptimizeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Machine != "mesh4x4" {
		t.Errorf("machine = %q", got.Machine)
	}
	if got.Local+got.Macro+got.Decomposed+got.General == 0 {
		t.Error("no communications classified")
	}
}

// TestOptimizeErrors: bad inputs are 4xx with a typed JSON error, and
// never kill the shared session.
func TestOptimizeErrors(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, tc := range map[string]struct {
		req  api.OptimizeRequest
		code int
		kind string
	}{
		"no program":   {api.OptimizeRequest{}, http.StatusBadRequest, api.CodeBadRequest},
		"both":         {api.OptimizeRequest{Example: "matmul", Nest: "x"}, http.StatusBadRequest, api.CodeBadRequest},
		"unknown":      {api.OptimizeRequest{Example: "nope"}, http.StatusBadRequest, api.CodeBadRequest},
		"bad nest":     {api.OptimizeRequest{Nest: "not a nest"}, http.StatusBadRequest, api.CodeBadRequest},
		"bad machine":  {api.OptimizeRequest{Example: "matmul", Machine: "torus9"}, http.StatusBadRequest, api.CodeBadRequest},
		"huge mesh":    {api.OptimizeRequest{Example: "matmul", Machine: "mesh100000x100000"}, http.StatusBadRequest, api.CodeBadRequest},
		"huge fattree": {api.OptimizeRequest{Example: "matmul", Machine: "fattree32768"}, http.StatusBadRequest, api.CodeBadRequest},
		"huge n":       {api.OptimizeRequest{Example: "matmul", N: 257}, http.StatusBadRequest, api.CodeBadRequest},
		"huge payload": {api.OptimizeRequest{Example: "matmul", N: 256, ElemBytes: 1<<32 + 1}, http.StatusBadRequest, api.CodeBadRequest},
		"bad optimize": {api.OptimizeRequest{Example: "matmul", M: -1}, http.StatusUnprocessableEntity, api.CodeUnprocessable},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, tc.code, body)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Errorf("%s: no typed error in %s", name, body)
			continue
		}
		if env.Error.Code != tc.kind || env.Error.Status != tc.code || env.Error.Message == "" {
			t.Errorf("%s: error %+v, want code %s status %d", name, env.Error, tc.kind, tc.code)
		}
	}

	// The session still works after the failures.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "matmul"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("session broken after bad requests: status %d", resp.StatusCode)
	}
}

// TestBatchStream: /v1/batch streams one NDJSON line per scenario, in
// suite order, with a trailing summary matching a direct engine run.
func TestBatchStream(t *testing.T) {
	cfg := scenarios.Config{Seed: 3, Random: 2, NoExamples: true}
	suite := scenarios.Generate(cfg)
	ref := engine.Run(suite, engine.Options{}) // before the server session opens

	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	data, _ := json.Marshal(api.BatchSpec{Seed: 3, Random: 2, NoExamples: true})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines, sum := decodeStream(t, resp)
	if len(lines) != len(ref.Results) {
		t.Fatalf("streamed %d lines, want %d", len(lines), len(ref.Results))
	}
	for i, l := range lines {
		r := ref.Results[i]
		if l.Name != r.Name || l.Classes != r.Classes || l.ModelTimeUs != r.ModelTime ||
			l.Vectorizable != r.Vectorizable || l.Err != r.Err {
			t.Errorf("line %d: %+v ≠ engine %+v", i, l, r)
		}
	}
	if sum.Summary.Scenarios != len(ref.Results) || sum.Summary.ClassTotals != ref.ClassTotals ||
		sum.Summary.TotalModelTime != ref.TotalModelTime || sum.Summary.Errors != ref.Errors {
		t.Errorf("summary %+v ≠ engine aggregates", sum.Summary)
	}
}

// decodeStream splits an NDJSON batch response into lines + summary.
func decodeStream(t *testing.T, resp *http.Response) ([]api.BatchLine, api.BatchSummary) {
	t.Helper()
	var lines []api.BatchLine
	var sum api.BatchSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if strings.Contains(string(line), `"summary"`) {
			if err := json.Unmarshal(line, &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var l api.BatchLine
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, sum
}

// TestBatchLimits: oversized suite specs are rejected.
func TestBatchLimits(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const huge = 1 << 62 // random+deep would overflow int
	for name, req := range map[string]api.BatchSpec{
		"oversized": {Random: 100000},
		"negative":  {Random: -1},
		"overflow":  {Random: huge, Deep: huge},
	} {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestLegacyRoutesGone: the pre-/v1 unversioned endpoints were
// removed and answer 404.
func TestLegacyRoutesGone(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/optimize", "/batch"} {
		resp, body := postJSON(t, ts.Client(), ts.URL+path, api.OptimizeRequest{Example: "matmul"})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404: %s", path, resp.StatusCode, body)
		}
	}
	resp, body := get(t, ts, "/stats")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stats: status %d, want 404: %s", resp.StatusCode, body)
	}
}

// TestStats: /v1/stats reports the shared cache, the store, request
// counters and the suite cache.
func TestStats(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: st})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "matmul"})
	postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "matmul"})
	// Two identical batch specs: the second must hit the suite cache.
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", api.BatchSpec{Random: 1, NoExamples: true})
		resp.Body.Close()
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Version != api.Version {
		t.Errorf("api_version = %q", got.Version)
	}
	if got.Requests.Optimize != 2 {
		t.Errorf("optimize requests = %d, want 2", got.Requests.Optimize)
	}
	if got.Requests.Batch != 2 {
		t.Errorf("batch requests = %d, want 2", got.Requests.Batch)
	}
	if got.Cache.PlanMisses == 0 {
		t.Error("cache stats empty after requests")
	}
	if got.Cache.PlanHits == 0 {
		t.Error("second identical request missed the shared plan cache")
	}
	if got.SuiteCache.Hits == 0 || got.SuiteCache.Misses == 0 {
		t.Errorf("suite cache = %+v, want ≥1 hit and ≥1 miss", got.SuiteCache)
	}
	if got.Store == nil || got.Store.PlanPuts == 0 {
		t.Errorf("store stats missing or empty: %+v", got.Store)
	}
	if got.Workers <= 0 {
		t.Errorf("workers = %d", got.Workers)
	}
}
