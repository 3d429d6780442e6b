package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/store"
)

// TestLatticeStream drives POST /v1/lattice end to end: the NDJSON
// row stream (ordering, switch-point flags), the summary line,
// per-point agreement with /v1/optimize, the plan-tier counters in
// /v1/stats, and the Go client's streaming decode of the same
// endpoint.
func TestLatticeStream(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Store: st})

	const gridSpec = "mesh{4..32}x8:bytes=1k..32M"
	req := api.LatticeRequest{Example: "matmul", Grid: gridSpec}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/lattice", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lattice status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var rows []api.LatticeRow
	var sum api.LatticeSummary
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.Contains(line, `"summary"`) {
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var row api.LatticeRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 64 {
		t.Fatalf("got %d rows, want 64", len(rows))
	}
	s := sum.Summary
	if s.Name != "matmul" || s.Grid != gridSpec || s.Points != 64 || s.Machines != 4 {
		t.Fatalf("summary %+v", s)
	}
	if s.Switches == 0 {
		t.Fatal("no switch points found; the sweep should cross algorithm thresholds")
	}

	// Ordering and switch-flag consistency: payloads strictly ascend
	// within each machine block, the first row of a block never
	// switches, and a switched row names the selection it displaced.
	switches := 0
	for i, row := range rows {
		newMachine := i == 0 || rows[i-1].Machine != row.Machine
		if !newMachine && rows[i-1].ElemBytes >= row.ElemBytes {
			t.Fatalf("row %d: payloads not ascending (%d after %d)", i, row.ElemBytes, rows[i-1].ElemBytes)
		}
		if newMachine && row.Switched {
			t.Fatalf("row %d: first payload of %s flagged as switch", i, row.Machine)
		}
		if row.Switched {
			switches++
			if row.SwitchedFrom != rows[i-1].Collectives {
				t.Fatalf("row %d: switched_from %q != previous collectives %q", i, row.SwitchedFrom, rows[i-1].Collectives)
			}
			if row.Collectives == rows[i-1].Collectives {
				t.Fatalf("row %d: flagged as switch but selection unchanged", i)
			}
		} else if !newMachine && row.Collectives != rows[i-1].Collectives {
			t.Fatalf("row %d: selection changed without a switch flag", i)
		}
	}
	if switches != s.Switches {
		t.Fatalf("summary counts %d switches, rows carry %d", s.Switches, switches)
	}

	// Spot-check compiled pricing against the uncompiled optimize
	// endpoint at a few lattice points, including a switch point.
	checked := 0
	for i, row := range rows {
		if i%23 != 0 && !row.Switched {
			continue
		}
		oresp, obody := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{
			Example: "matmul", Machine: row.Machine, ElemBytes: row.ElemBytes,
		})
		if oresp.StatusCode != http.StatusOK {
			t.Fatalf("optimize status %d: %s", oresp.StatusCode, obody)
		}
		var ores api.OptimizeResponse
		if err := json.Unmarshal(obody, &ores); err != nil {
			t.Fatal(err)
		}
		if ores.ModelTimeUs != row.ModelTimeUs || ores.Collectives != row.Collectives ||
			ores.Vectorizable != row.Vectorizable {
			t.Fatalf("lattice row diverges from optimize at %s/%d bytes:\n  row: %+v\n  opt: %+v",
				row.Machine, row.ElemBytes, row, ores)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d equivalence spot-checks ran", checked)
	}

	// The same sweep through the Go client: identical rows, summary,
	// and a plan-tier memory hit this time.
	c, err := client.New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	var got []api.LatticeRow
	csum, err := c.Lattice(context.Background(), req, func(row api.LatticeRow) error {
		got = append(got, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) || *csum != sum {
		t.Fatalf("client stream diverges: %d rows, summary %+v", len(got), csum.Summary)
	}
	for i := range got {
		if got[i] != rows[i] {
			t.Fatalf("client row %d diverges: %+v vs %+v", i, got[i], rows[i])
		}
	}

	// Stats surface the lattice path: request counter, artifact
	// lookups in the plan tier (the nest's one miss, every later
	// lattice and optimize of it a memory hit), template/eval traffic,
	// and the nest's one plans/ write.
	stresp, stbody := get(t, ts, "/v1/stats")
	if stresp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", stresp.StatusCode)
	}
	var stats api.StatsResponse
	if err := json.Unmarshal(stbody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests.Lattice != 2 {
		t.Fatalf("lattice request count %d, want 2", stats.Requests.Lattice)
	}
	cs := stats.Cache
	if cs.PlanMisses != 1 || cs.PlanHits == 0 || cs.DiskMisses != 1 {
		t.Fatalf("plan-tier counters: %+v", cs)
	}
	if cs.CompiledEvals == 0 || cs.CompiledTemplates == 0 || cs.CompiledTemplateMisses == 0 {
		t.Fatalf("pricer counters did not move: %+v", cs)
	}
	if stats.Store == nil || stats.Store.PlanPuts != 1 || stats.Store.CompiledPuts != 0 {
		t.Fatalf("store traffic: %+v", stats.Store)
	}
}

// TestLatticeErrors: malformed lattice requests answer typed 4xx.
func TestLatticeErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, tc := range map[string]struct {
		req  api.LatticeRequest
		code string
	}{
		"missing grid":    {api.LatticeRequest{Example: "matmul"}, api.CodeBadRequest},
		"bad grid":        {api.LatticeRequest{Example: "matmul", Grid: "torus4x4"}, api.CodeBadRequest},
		"missing nest":    {api.LatticeRequest{Grid: "mesh4x4"}, api.CodeBadRequest},
		"unknown example": {api.LatticeRequest{Example: "nope", Grid: "mesh4x4"}, api.CodeBadRequest},
		"both sources":    {api.LatticeRequest{Example: "matmul", Nest: "x", Grid: "mesh4x4"}, api.CodeBadRequest},
		"huge n":          {api.LatticeRequest{Example: "matmul", N: 257, Grid: "mesh4x4"}, api.CodeBadRequest},
		// N·elem_bytes would wrap int64 and price a bogus cost.
		"huge payload":       {api.LatticeRequest{Example: "matmul", Grid: "mesh4x4:bytes=4611686018427387904..9223372036854775807"}, api.CodeBadRequest},
		"payload past bound": {api.LatticeRequest{Example: "matmul", N: 16, Grid: "mesh4x4:bytes=64,68719476737"}, api.CodeBadRequest},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/lattice", tc.req)
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Fatalf("%s: not an error envelope: %s", name, body)
		}
		if resp.StatusCode != env.Error.Status || env.Error.Code != tc.code {
			t.Fatalf("%s: got %d/%s, want code %s", name, resp.StatusCode, env.Error.Code, tc.code)
		}
	}
	// A giant grid is rejected before any work happens.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/lattice",
		api.LatticeRequest{Example: "matmul", Grid: fmt.Sprintf("mesh{2..%d}x{2..%d}:bytes=1..1M", 1<<20, 1<<20)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized grid answered %d: %s", resp.StatusCode, body)
	}
}

// overflowNest makes the alignment step overflow int64 (a panic in
// ratmat.ScaledInt) on every attempt.
const overflowNest = `nest big2 {
  array a[2]
  array b[2]
  array c[2]
  loop (i, j) {
    S: c[i, j] += a[4000000000*i + 3*j, 7*i + 5000000000*j]
    T: b[j, i] += c[2*i + 3000000001*j, i]
    U: a[i, j] += b[3000000007*i + 5*j, 11*i + 4000000009*j]
  }
}`

// TestOptimizePanicIsTypedError: a nest whose optimization panics is
// answered with a typed 422 on /v1/lattice (which compiles on the
// handler goroutine) and /v1/optimize (an engine worker) — on every
// attempt, so no zero-plan entry is cached after the first — and the
// server keeps answering afterwards.
func TestOptimizePanicIsTypedError(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Store: st})
	for _, ep := range []struct {
		path string
		req  any
	}{
		{"/v1/lattice", api.LatticeRequest{Nest: overflowNest, Grid: "mesh4x4:bytes=1k..4k"}},
		{"/v1/optimize", api.OptimizeRequest{Nest: overflowNest, Machine: "mesh4x4"}},
	} {
		for attempt := 1; attempt <= 2; attempt++ {
			resp, body := postJSON(t, ts.Client(), ts.URL+ep.path, ep.req)
			var env api.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
				t.Fatalf("%s attempt %d: status %d, not an error envelope: %s", ep.path, attempt, resp.StatusCode, body)
			}
			if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != api.CodeUnprocessable ||
				!strings.Contains(env.Error.Message, "internal error") {
				t.Fatalf("%s attempt %d: got %d %+v", ep.path, attempt, resp.StatusCode, env.Error)
			}
		}
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "matmul"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server stopped answering after the panics: %d %s", resp.StatusCode, body)
	}
}

// latticeWriter is a response writer that counts writes and flushes;
// with dead set, its peer has gone and every write fails.
type latticeWriter struct {
	header          http.Header
	dead            bool
	writes, flushes int
	body            bytes.Buffer
}

func (w *latticeWriter) Header() http.Header { return w.header }
func (w *latticeWriter) WriteHeader(int)     {}
func (w *latticeWriter) Flush()              { w.flushes++ }
func (w *latticeWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.dead {
		return 0, errors.New("connection reset by peer")
	}
	return w.body.Write(p)
}

// TestLatticeWrites: the handler writes the computed rows without
// flushing after each one, and after a failed write (the client has
// gone) it writes nothing more.
func TestLatticeWrites(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	body, err := json.Marshal(api.LatticeRequest{Example: "matmul", Grid: "mesh{4..32}x8:bytes=1k..32M"})
	if err != nil {
		t.Fatal(err)
	}
	for _, dead := range []bool{false, true} {
		w := &latticeWriter{header: http.Header{}, dead: dead}
		srv.handleLattice(w, httptest.NewRequest(http.MethodPost, "/v1/lattice", bytes.NewReader(body)))
		if w.flushes != 0 {
			t.Fatalf("dead=%v: handler flushed %d times, want 0", dead, w.flushes)
		}
		if dead && w.writes != 1 {
			t.Fatalf("handler wrote %d times to a dead client, want 1", w.writes)
		}
		if lines := strings.Count(w.body.String(), "\n"); !dead && lines != 65 {
			t.Fatalf("handler wrote %d lines, want 64 rows and a summary", lines)
		}
	}
}
