package trace

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRenderOnRead: a trace recorded in binary renders on read to the
// SpanData/TraceData the recorder used to store — hex IDs, attributes
// as a map with integers formatted in base 10 and a repeated key
// overwriting, the node stamped on every span, the root last — and to
// the same JSON and TreeString.
func TestRenderOnRead(t *testing.T) {
	const header = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rec := NewRecorder(4)
	rec.SetNode("n1")
	ctx, root := StartRoot(context.Background(), rec, "http", header)
	root.Set("method", "POST")
	sctx, sc := StartSpan(ctx, "scenario")
	sc.Set("plan_source", "compute").SetInt("n", -42).Set("plan_source", "memory")
	_, empty := StartSpan(sctx, "store.lookup")
	empty.EndWith(1500 * time.Nanosecond)
	AddSpan(sctx, "kernel", root.start, 123*time.Microsecond, Int("ops", 7), String("ops", "8"))
	sc.End()
	_, late := StartSpan(ctx, "late")
	root.Set("endpoint", "/v1/optimize").SetInt("status", 200).EndWith(2 * time.Millisecond)
	sc.Set("after", "end")
	late.End()

	got, ok := rec.Get("4bf92f3577b34da6a3ce929d0e0e4736")
	if !ok {
		t.Fatal("trace not recorded")
	}
	h := func(b []byte) string { return hex.EncodeToString(b) }
	kernelID := got.Spans[1].ID // minted inside AddSpan
	want := &TraceData{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Name: "http",
		Start: root.start.UTC(), DurationUs: 2000, NodeID: "n1", Spans: []SpanData{
			{ID: h(empty.id[:]), Parent: h(sc.id[:]), Name: "store.lookup", Start: empty.start.UTC(),
				DurationUs: 1.5, NodeID: "n1"},
			{ID: kernelID, Parent: h(sc.id[:]), Name: "kernel", Start: root.start.UTC(),
				DurationUs: 123, Attrs: map[string]string{"ops": "8"}, NodeID: "n1"},
			{ID: h(sc.id[:]), Parent: h(root.id[:]), Name: "scenario", Start: sc.start.UTC(),
				DurationUs: float64(sc.dur) / 1e3, Attrs: map[string]string{"plan_source": "memory", "n": "-42"}, NodeID: "n1"},
			{ID: h(root.id[:]), Parent: "00f067aa0ba902b7", Name: "http", Start: root.start.UTC(),
				DurationUs: 2000, Attrs: map[string]string{"method": "POST", "endpoint": "/v1/optimize", "status": "200"}, NodeID: "n1"},
		}}
	if len(kernelID) != 16 || strings.Trim(kernelID, "0123456789abcdef") != "" {
		t.Errorf("kernel span ID %q is not 16 lowercase hex digits", kernelID)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) {
		t.Fatalf("rendered trace:\n%s\nwant:\n%s", gj, wj)
	}
	tree := got.TreeString()
	for _, line := range []string{
		"[n1] http 2000µs endpoint=/v1/optimize method=POST status=200\n",
		" n=-42 plan_source=memory\n",
		"    [n1] store.lookup 2µs\n",
		"    [n1] kernel 123µs ops=8\n",
	} {
		if !strings.Contains(tree, line) {
			t.Errorf("TreeString missing %q:\n%s", line, tree)
		}
	}
	if strings.Contains(tree, "late") || strings.Contains(tree, "after") {
		t.Errorf("a span or attribute after End was recorded:\n%s", tree)
	}
}

// TestRecorderLookupCanonical: the ring answers only the canonical
// lowercase hex form of a trace ID.
func TestRecorderLookupCanonical(t *testing.T) {
	rec := NewRecorder(2)
	_, root := StartRoot(context.Background(), rec, "x", "")
	root.End()
	id := root.TraceID().String()
	if _, ok := rec.Get(id); !ok {
		t.Fatalf("%s not found", id)
	}
	for _, bad := range []string{strings.ToUpper(id), id[:31], id + "0", " " + id[1:], "", strings.Repeat("0", 32)} {
		if _, ok := rec.Get(bad); ok {
			t.Errorf("Get(%q) hit", bad)
		}
	}
}

// maxTraceAllocs bounds TestTraceAllocs, which measures 12: the trace
// with its first two spans is one allocation, each of the other four
// spans one, each span's context one, and the completed-span list one
// more past four spans. Attributes and the publish allocate nothing.
// With a map per span and SpanData/TraceData built on End, the same
// trace allocated 55 times.
const maxTraceAllocs = 13

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestTraceAllocs gates recording: a root, five children with string
// and int attributes, and the publish to the ring. Skipped under -race.
func TestTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	rec := NewRecorder(4)
	allocs := testing.AllocsPerRun(200, func() {
		ctx, root := StartRoot(context.Background(), rec, "http", "")
		root.Set("method", "POST")
		for i := 0; i < 5; i++ {
			_, sp := StartSpan(ctx, "child")
			sp.Set("result", "hit").SetInt("ops", int64(i)).End()
		}
		root.Set("endpoint", "/v1/optimize").SetInt("status", 200).End()
	})
	t.Logf("%.0f allocs per trace", allocs)
	if allocs > maxTraceAllocs {
		t.Errorf("a traced request allocates %.0f times, want ≤ %d", allocs, maxTraceAllocs)
	}
}
