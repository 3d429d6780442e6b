package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStartRootFresh: without an inbound traceparent, a root span
// mints a fresh trace and publishes it on End.
func TestStartRootFresh(t *testing.T) {
	rec := NewRecorder(4)
	ctx, root := StartRoot(context.Background(), rec, "GET /x", "")
	if root == nil {
		t.Fatal("StartRoot returned nil span")
	}
	if root.TraceID().IsZero() {
		t.Fatal("fresh root has zero trace ID")
	}
	if FromContext(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	if rec.Len() != 0 {
		t.Fatalf("trace published before root end: %d", rec.Len())
	}
	root.Set("k", "v").End()
	td, ok := rec.Get(root.TraceID().String())
	if !ok {
		t.Fatalf("trace %s not recorded", root.TraceID())
	}
	if len(td.Spans) != 1 || td.Spans[0].Name != "GET /x" || td.Spans[0].Attrs["k"] != "v" {
		t.Fatalf("recorded spans = %+v", td.Spans)
	}
}

// TestStartRootAdoptsTraceparent: a valid inbound header fixes the
// trace ID and parents the root to the remote span.
func TestStartRootAdoptsTraceparent(t *testing.T) {
	const header = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rec := NewRecorder(4)
	_, root := StartRoot(context.Background(), rec, "POST /v1/optimize", header)
	if got := root.TraceID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID = %s, want the inbound one", got)
	}
	root.End()
	td, _ := rec.Get("4bf92f3577b34da6a3ce929d0e0e4736")
	if td == nil {
		t.Fatal("adopted trace not recorded")
	}
	if td.Spans[0].Parent != "00f067aa0ba902b7" {
		t.Fatalf("root parent = %q, want the remote span ID", td.Spans[0].Parent)
	}
	// The adopted root still renders as a top-level tree node even
	// though its parent span lives in another process.
	if tree := td.Tree(); len(tree) != 1 || tree[0].Name != "POST /v1/optimize" {
		t.Fatalf("tree = %+v", tree)
	}
}

// TestStartRootMalformedTraceparent: malformed headers are ignored
// and a fresh trace is minted instead.
func TestStartRootMalformedTraceparent(t *testing.T) {
	bad := []string{
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",   // short flags
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // non-hex trace ID
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span ID
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
		"000-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong layout
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
		_, root := StartRoot(context.Background(), nil, "x", h)
		if root.TraceID().IsZero() {
			t.Errorf("no fresh trace minted for %q", h)
		}
		if got := root.TraceID().String(); got == "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("malformed header %q adopted", h)
		}
		root.End()
	}
}

// TestTraceparentRoundTrip: Format output parses back to the same
// identifiers, and a child span's outgoing header carries the trace.
func TestTraceparentRoundTrip(t *testing.T) {
	ctx, root := StartRoot(context.Background(), nil, "root", "")
	_, child := StartSpan(ctx, "child")
	h := child.Traceparent()
	tid, sid, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q does not parse", h)
	}
	if tid != root.TraceID() {
		t.Fatalf("traceparent trace ID %s != root %s", tid, root.TraceID())
	}
	if sid.IsZero() {
		t.Fatal("zero span ID in traceparent")
	}
	if got := OutgoingTraceparent(ctx); !strings.Contains(got, root.TraceID().String()) {
		t.Fatalf("OutgoingTraceparent %q lost the trace ID", got)
	}
	if OutgoingTraceparent(context.Background()) == "" {
		t.Fatal("OutgoingTraceparent minted nothing without an active span")
	}
}

// TestNilSpanNoOps: every Span method tolerates the nil receiver, and
// StartSpan without an active trace returns one.
func TestNilSpanNoOps(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("StartSpan minted a span with no active trace")
	}
	sp.Set("k", "v").SetInt("n", 1)
	sp.End()
	sp.EndWith(time.Second)
	if !sp.TraceID().IsZero() || sp.Traceparent() != "" {
		t.Fatal("nil span leaked an identity")
	}
	AddSpan(ctx, "x", time.Now(), time.Second, Int("n", 1))
}

// TestSpanTree: children nest under parents; sibling order is
// completion order; EndWith records the synthetic duration.
func TestSpanTree(t *testing.T) {
	rec := NewRecorder(1)
	ctx, root := StartRoot(context.Background(), rec, "req", "")
	sctx, scenario := StartSpan(ctx, "scenario")
	_, align := StartSpan(sctx, "alignment")
	align.End()
	AddSpan(sctx, "kernel", time.Now(), 123*time.Microsecond, Int("ops", 7))
	scenario.End()
	root.End()

	td, ok := rec.Get(root.TraceID().String())
	if !ok {
		t.Fatal("trace not recorded")
	}
	tree := td.Tree()
	if len(tree) != 1 || tree[0].Name != "req" || len(tree[0].Children) != 1 {
		t.Fatalf("tree = %s", td.TreeString())
	}
	sc := tree[0].Children[0]
	if sc.Name != "scenario" || len(sc.Children) != 2 {
		t.Fatalf("scenario node = %+v\n%s", sc, td.TreeString())
	}
	if sc.Children[0].Name != "alignment" || sc.Children[1].Name != "kernel" {
		t.Fatalf("children = %s, %s", sc.Children[0].Name, sc.Children[1].Name)
	}
	if got := sc.Children[1].DurationUs; got != 123 {
		t.Fatalf("synthetic kernel duration = %gµs, want 123", got)
	}
	if !strings.Contains(td.TreeString(), "ops=7") {
		t.Fatalf("TreeString lost attrs:\n%s", td.TreeString())
	}
}

// TestRecorderEviction: the ring retains only the newest cap traces,
// newest first in List, under concurrent writers (run with -race).
func TestRecorderEviction(t *testing.T) {
	const capTraces = 8
	rec := NewRecorder(capTraces)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, root := StartRoot(context.Background(), rec, fmt.Sprintf("w%d-%d", g, i), "")
				root.End()
			}
		}(g)
	}
	wg.Wait()
	if rec.Len() != capTraces {
		t.Fatalf("recorder retained %d traces, want %d", rec.Len(), capTraces)
	}
	if rec.Total() != 200 {
		t.Fatalf("total = %d, want 200", rec.Total())
	}
	all := rec.List(0, 0)
	if len(all) != capTraces {
		t.Fatalf("List returned %d, want %d", len(all), capTraces)
	}
	for _, sum := range all {
		got, ok := rec.Get(sum.TraceID)
		if !ok || got.TraceID != sum.TraceID || got.Name != sum.Root.Name || len(got.Spans) != sum.Spans {
			t.Fatalf("listed trace %s not retrievable", sum.TraceID)
		}
	}
	if got := rec.List(0, 3); len(got) != 3 {
		t.Fatalf("List limit: got %d, want 3", len(got))
	}
	// min-duration filter: nothing here took an hour.
	if got := rec.List(time.Hour, 0); len(got) != 0 {
		t.Fatalf("List(min=1h) returned %d traces", len(got))
	}
}

// TestSpanCap: spans past the per-trace cap are counted, not stored,
// and the root span still records.
func TestSpanCap(t *testing.T) {
	rec := NewRecorder(1)
	ctx, root := StartRoot(context.Background(), rec, "big", "")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	root.End()
	td, _ := rec.Get(root.TraceID().String())
	if td == nil {
		t.Fatal("trace not recorded")
	}
	if td.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", td.Dropped)
	}
	if len(td.Spans) != maxSpansPerTrace+1 {
		t.Fatalf("spans = %d, want %d", len(td.Spans), maxSpansPerTrace+1)
	}
}
