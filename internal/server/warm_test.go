package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/client"
)

// warmPool is the 2400-request warm /v1/optimize pool: every built-in
// example on eight machines, at two grid extents and at each element
// payload from 64 B to 1 MiB, as encoded request bodies.
func warmPool(t testing.TB) [][]byte {
	machines := []string{"fattree32", "fattree64", "mesh4x4", "mesh8x8", "mesh16x16", "mesh64x2", "mesh2x64", "mesh2x16"}
	var pool [][]byte
	for _, p := range affine.AllExamples() {
		for _, m := range machines {
			for _, n := range []int{16, 32} {
				for eb := int64(64); eb <= 1<<20; eb *= 2 {
					body, err := json.Marshal(api.OptimizeRequest{Example: p.Name, Machine: m, N: n, ElemBytes: eb})
					if err != nil {
						t.Fatal(err)
					}
					pool = append(pool, body)
				}
			}
		}
	}
	return pool
}

// serve runs one request through h on a recorder: no network, and
// no wire parsing (httptest.NewRequest would read the request through
// a fresh 4 KiB bufio.Reader each time).
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// warmServer returns a one-worker server that has answered every
// request of pool once, so each later one is a plan-tier and
// selection-memo hit.
func warmServer(t testing.TB, pool [][]byte) *Server {
	srv := New(Options{Workers: 1})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	for _, body := range pool {
		if rec := serve(h, "/v1/optimize", body); rec.Code != http.StatusOK {
			t.Fatalf("warming %s: status %d: %s", body, rec.Code, rec.Body)
		}
	}
	return srv
}

// maxWarmOptimizeAllocs bounds the allocations of one warm
// /v1/optimize call of handleOptimize, recorder and request included.
// Every request below measures 33 (re-measured with spans recorded in
// binary: handleOptimize alone runs untraced, so that did not move
// it). Rendering the plan key through fmt on every request, as the key
// was once built, put the same requests at 112–235, and the engine's
// string-keyed selection memo, since removed, at 52–53.
const maxWarmOptimizeAllocs = 36

// maxWarmStackAllocs bounds the same requests through the whole
// handler stack: the traced root and scenario spans, the metrics and
// the latency exemplar on top of handleOptimize. Every request below
// measures 45. With a map per span, SpanData/TraceData built on End, an
// exemplar label map and the request-log attributes boxed whether or
// not the logger was enabled, the stack measured 76.
const maxWarmStackAllocs = 49

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestOptimizeWarmAllocs gates the warm /v1/optimize path: with the
// plan and every selection memoized, a request allocates for JSON
// decoding and encoding, the engine hand-off and the Collectives
// summary, and nothing for the plan key; through the whole stack,
// tracing adds the trace, the scenario span and their contexts, and
// the Trace-Id header. Meaningless under -race (sync.Pool drops puts),
// like every allocation gate.
func TestOptimizeWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	reqs := []api.OptimizeRequest{
		{Example: "example1", Machine: "fattree32"},
		{Example: "matmul", Machine: "mesh8x8", N: 32, ElemBytes: 4096},
		{Example: "skewedcopy", Machine: "mesh2x64", ElemBytes: 1 << 20},
		{Example: "gauss", Machine: "mesh16x16:flat", NoMacro: true},
	}
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h, stack := http.HandlerFunc(srv.handleOptimize), srv.Handler()
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if rec := serve(h, "/v1/optimize", body); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		allocs := testing.AllocsPerRun(200, func() { serve(h, "/v1/optimize", body) })
		t.Logf("%s: %.0f allocs", body, allocs)
		if allocs > maxWarmOptimizeAllocs {
			t.Errorf("%s: warm optimize allocates %.0f times, want ≤ %d", body, allocs, maxWarmOptimizeAllocs)
		}
		allocs = testing.AllocsPerRun(200, func() { serve(stack, "/v1/optimize", body) })
		t.Logf("%s: %.0f allocs through the handler stack", body, allocs)
		if allocs > maxWarmStackAllocs {
			t.Errorf("%s: warm optimize through the stack allocates %.0f times, want ≤ %d", body, allocs, maxWarmStackAllocs)
		}
	}
}

// BenchmarkServerOptimizeWarm drives the warm 2400-request pool
// through the full handler stack (routing, tracing, metrics) on a
// recorder, cycling through the pool: the in-process counterpart of
// perfbench's optimize-warm workload, without the network.
func BenchmarkServerOptimizeWarm(b *testing.B) {
	pool := warmPool(b)
	h := warmServer(b, pool).Handler()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		serve(h, "/v1/optimize", pool[i%len(pool)])
		i++
	}
}

// TestConcurrentOptimizeLattice: /v1/optimize and /v1/lattice on one
// shared example at once. Both key the same interned program, so its
// memoized text and plan key are read and published concurrently
// (run under -race); every answer must equal the first one.
func TestConcurrentOptimizeLattice(t *testing.T) {
	srv := New(Options{Workers: 2})
	defer srv.Close()
	h := srv.Handler()
	optBody, _ := json.Marshal(api.OptimizeRequest{Example: "example1", Machine: "mesh8x8"})
	latBody, _ := json.Marshal(api.LatticeRequest{Example: "example1", Grid: "mesh{4,8}x{4,8}:bytes=1k..4k"})

	const clients, rounds = 4, 8
	got := make([][]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				path, body := "/v1/optimize", optBody
				if (c+r)%2 == 1 {
					path, body = "/v1/lattice", latBody
				}
				rec := serve(h, path, body)
				out := rec.Body.String()
				if rec.Code != http.StatusOK {
					out = path + " failed: " + out
				} else if path == "/v1/optimize" {
					out = stripPhasesJSON(t, rec.Body.Bytes())
				}
				got[c] = append(got[c], path+" "+out)
			}
		}(c)
	}
	wg.Wait()
	first := map[string]string{}
	for c := range got {
		for _, out := range got[c] {
			path, _, _ := strings.Cut(out, " ")
			if want, ok := first[path]; !ok {
				first[path] = out
			} else if out != want {
				t.Errorf("client %d: %s differs:\n got %s\nwant %s", c, path, out, want)
			}
		}
	}
	if len(first) != 2 {
		t.Fatalf("served %d endpoints, want 2", len(first))
	}
}

// stripPhasesJSON re-encodes an optimize response without its
// per-request phase attribution.
func stripPhasesJSON(t *testing.T, body []byte) string {
	var resp api.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Error(err)
		return string(body)
	}
	resp.Phases = nil
	out, _ := json.Marshal(resp)
	return string(out)
}

// maxWarmLatticeAllocs bounds the allocations of one warm /v1/lattice
// call of handleLattice on CI's lattice grid (64 points), recorder and
// request included. It measures 75; encoding each row through
// json.Encoder, as the handler once did, put it at 133.
const maxWarmLatticeAllocs = 82

// TestLatticeAllocs gates the warm /v1/lattice path: with the artifact
// compiled and every template built, a sweep allocates for the request
// body, the sweep's rows, one row buffer and the summary line, and
// nothing per row for encoding. Meaningless under -race.
func TestLatticeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h := http.HandlerFunc(srv.handleLattice)
	body, err := json.Marshal(api.LatticeRequest{Example: "matmul", Grid: "mesh{4..32}x8:bytes=1k..32M"})
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(h, "/v1/lattice", body); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(50, func() { serve(h, "/v1/lattice", body) })
	t.Logf("%.0f allocs", allocs)
	if allocs > maxWarmLatticeAllocs {
		t.Errorf("warm lattice allocates %.0f times, want ≤ %d", allocs, maxWarmLatticeAllocs)
	}
}

// latticeBenchGrid is perfbench's lattice grid: 16 meshes × 11
// payloads.
const latticeBenchGrid = "mesh{4..32}x{2..16}:bytes=1k..1M"

// BenchmarkServerLatticeWarm sweeps every built-in example over the
// 176-point grid through client.Lattice to a loopback server, cycling
// through the examples after one warming pass: the in-process
// counterpart of perfbench's lattice workload, so the row encoding on
// the server and the decoding in the client are both timed.
func BenchmarkServerLatticeWarm(b *testing.B) {
	srv := New(Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() { ts.Close(); srv.Close() })
	c, err := client.New(ts.URL, ts.Client())
	if err != nil {
		b.Fatal(err)
	}
	var reqs []api.LatticeRequest
	for _, p := range affine.AllExamples() {
		reqs = append(reqs, api.LatticeRequest{Example: p.Name, Grid: latticeBenchGrid})
	}
	rows := 0
	count := func(api.LatticeRow) error { rows++; return nil }
	ctx := context.Background()
	for _, req := range reqs {
		if _, err := c.Lattice(ctx, req, count); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := c.Lattice(ctx, reqs[i%len(reqs)], count); err != nil {
			b.Fatal(err)
		}
		i++
	}
	if rows != 176*(len(reqs)+i) {
		b.Fatalf("%d rows over %d sweeps", rows, len(reqs)+i)
	}
}
