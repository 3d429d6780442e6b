package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// SpanData is one completed span as recorded.
type SpanData struct {
	ID         string            `json:"id"`
	Parent     string            `json:"parent,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationUs float64           `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	// NodeID is the cluster member that recorded the span ("" when
	// standalone). Stamped by the recorder, so merged cross-node trees
	// keep each span's origin.
	NodeID string `json:"node_id,omitempty"`
}

// TraceData is one completed trace: the root span's identity plus
// every recorded span, in completion order.
type TraceData struct {
	TraceID    string     `json:"trace_id"`
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	DurationUs float64    `json:"duration_us"`
	Spans      []SpanData `json:"spans,omitempty"`
	// Dropped counts spans discarded past the per-trace cap.
	Dropped int `json:"dropped_spans,omitempty"`
	// NodeID is the recording cluster member ("" when standalone).
	NodeID string `json:"node_id,omitempty"`
}

// Root returns the trace's root span. The recording order guarantees
// the root is published last (ending it is what publishes the trace),
// so this is the final element of Spans; nil for an empty trace.
func (td *TraceData) Root() *SpanData {
	if len(td.Spans) == 0 {
		return nil
	}
	return &td.Spans[len(td.Spans)-1]
}

// SpanNode is SpanData with resolved children — the JSON span tree
// served by /debug/traces/{id}.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree resolves parent links into span trees. Spans whose parent is
// not in the trace become top-level nodes: the root span itself, and
// a root adopted from a remote caller's traceparent (its parent lives
// in another process). Children keep recording order.
func (td *TraceData) Tree() []*SpanNode {
	nodes := make(map[string]*SpanNode, len(td.Spans))
	for i := range td.Spans {
		sd := td.Spans[i]
		nodes[sd.ID] = &SpanNode{SpanData: sd}
	}
	var roots []*SpanNode
	for i := range td.Spans {
		n := nodes[td.Spans[i].ID]
		if p, ok := nodes[n.Parent]; ok && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// TreeString renders the span tree as an indented text block — the
// payload of the -trace-slow log line.
func (td *TraceData) TreeString() string {
	var b strings.Builder
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		fmt.Fprintf(&b, "%*s", depth*2, "")
		if n.NodeID != "" {
			fmt.Fprintf(&b, "[%s] ", n.NodeID)
		}
		fmt.Fprintf(&b, "%s %.0fµs", n.Name, n.DurationUs)
		if len(n.Attrs) > 0 {
			keys := make([]string, 0, len(n.Attrs))
			for k := range n.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, n.Attrs[k])
			}
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range td.Tree() {
		walk(r, 0)
	}
	if td.Dropped > 0 {
		fmt.Fprintf(&b, "(+%d spans dropped past the per-trace cap)\n", td.Dropped)
	}
	return b.String()
}

// Merge stitches a locally recorded trace with the same trace's span
// sets fetched from other cluster members. Spans are deduplicated by
// span ID with the local copy winning; remote spans are appended in
// the order the remotes are given (callers sort by node ID for
// determinism), and the local root stays the final span so Root()
// holds on the merged trace. Dropped counts are summed. Nil remotes
// are skipped; the inputs are not mutated.
func Merge(local *TraceData, remotes ...*TraceData) *TraceData {
	merged := &TraceData{
		TraceID:    local.TraceID,
		Name:       local.Name,
		Start:      local.Start,
		DurationUs: local.DurationUs,
		NodeID:     local.NodeID,
		Dropped:    local.Dropped,
	}
	seen := make(map[string]bool, len(local.Spans))
	for _, sd := range local.Spans {
		seen[sd.ID] = true
	}
	// Local spans first (root held back for the end), then each
	// remote's unseen spans in its own recording order.
	if n := len(local.Spans); n > 0 {
		merged.Spans = append(merged.Spans, local.Spans[:n-1]...)
	}
	for _, r := range remotes {
		if r == nil {
			continue
		}
		merged.Dropped += r.Dropped
		for _, sd := range r.Spans {
			if seen[sd.ID] {
				continue
			}
			seen[sd.ID] = true
			if sd.NodeID == "" {
				sd.NodeID = r.NodeID
			}
			merged.Spans = append(merged.Spans, sd)
		}
	}
	if n := len(local.Spans); n > 0 {
		merged.Spans = append(merged.Spans, local.Spans[n-1])
	}
	return merged
}

// data renders one recorded span as read: hex IDs, the attributes as
// a map, and the recording node.
func (s *Span) data(node string) SpanData {
	sd := SpanData{
		ID:         s.id.String(),
		Name:       s.name,
		Start:      s.start.UTC(),
		DurationUs: float64(s.dur) / float64(time.Microsecond),
		NodeID:     node,
	}
	if !s.parent.IsZero() {
		sd.Parent = s.parent.String()
	}
	if len(s.attrs) > 0 {
		sd.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			sd.Attrs[a.key] = a.value()
		}
	}
	return sd
}

// data renders a published trace as read.
func (t *activeTrace) data() *TraceData {
	td := &TraceData{
		TraceID: t.id.String(),
		Spans:   make([]SpanData, len(t.spans)),
		Dropped: t.dropped,
		NodeID:  t.node,
	}
	for i, s := range t.spans {
		td.Spans[i] = s.data(t.node)
	}
	root := td.Root()
	td.Name, td.Start, td.DurationUs = root.Name, root.Start, root.DurationUs
	return td
}

// Recorder is a bounded in-memory ring of completed traces, newest
// evicting oldest. It holds each trace as recorded and renders it only
// when read. It is safe for concurrent use; the zero value is not
// usable — construct with NewRecorder.
type Recorder struct {
	mu    sync.Mutex
	cap   int
	node  string
	byID  map[TraceID]*activeTrace
	order []TraceID // oldest first
	total uint64
}

// DefaultRecorderCap is the default trace-ring capacity. Traces are
// usually a handful of spans; batch traces can reach the per-trace
// span cap, so the ring is kept small.
const DefaultRecorderCap = 64

// NewRecorder returns a recorder retaining the most recent capTraces
// traces (0 or negative: DefaultRecorderCap).
func NewRecorder(capTraces int) *Recorder {
	if capTraces <= 0 {
		capTraces = DefaultRecorderCap
	}
	return &Recorder{cap: capTraces, byID: make(map[TraceID]*activeTrace, capTraces)}
}

// SetNode sets the cluster node ID stamped onto every subsequently
// recorded trace and span. Call once at startup, before traffic.
func (r *Recorder) SetNode(id string) {
	r.mu.Lock()
	r.node = id
	r.mu.Unlock()
}

func (r *Recorder) add(t *activeTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t.node = r.node
	r.total++
	if _, ok := r.byID[t.id]; ok {
		// Two roots published under one trace ID (a caller reusing a
		// traceparent): keep the newest, keep the ring position.
		r.byID[t.id] = t
		return
	}
	r.byID[t.id] = t
	r.order = append(r.order, t.id)
	for len(r.order) > r.cap {
		delete(r.byID, r.order[0])
		r.order = append(r.order[:0], r.order[1:]...)
	}
}

// Get returns the recorded trace whose ID renders as id (32 lowercase
// hex digits; any other string misses).
func (r *Recorder) Get(id string) (*TraceData, bool) {
	var tid TraceID
	if len(id) != 2*len(tid) || !decodeHex(tid[:], id) {
		return nil, false
	}
	r.mu.Lock()
	t, ok := r.byID[tid]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	return t.data(), true
}

// Summary is one entry of the recorder's listing: a trace's ID, its
// root span and its span count, rendered without the other spans.
type Summary struct {
	TraceID string
	Root    SpanData
	Spans   int
}

// List returns recorded traces newest-first, keeping only those of at
// least min duration, at most limit entries (limit <= 0: no bound).
func (r *Recorder) List(min time.Duration, limit int) []Summary {
	minUs := float64(min) / float64(time.Microsecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Summary, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		t := r.byID[r.order[i]]
		root := t.spans[len(t.spans)-1].data(t.node)
		if root.DurationUs < minUs {
			continue
		}
		out = append(out, Summary{TraceID: t.id.String(), Root: root, Spans: len(t.spans)})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Len returns the number of traces currently retained.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// Total returns the number of traces ever recorded, evicted included.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
