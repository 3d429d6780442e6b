// Package trace is a dependency-free request-scoped tracing kit for
// the optimizer: trace/span identifiers, a context-carried active
// span, W3C traceparent propagation (traceparent.go) and a bounded
// in-memory recorder of completed traces (recorder.go).
//
// The design follows the shape of OpenTelemetry without the weight:
// a root span is started per unit of work (HTTP request, async job),
// child spans are opened around the planner phases worth attributing
// (alignment, kernel computation, collective selection, store
// lookups), and when the root ends the whole trace is published to a
// recorder ring that /debug/traces serves. Code records spans
// unconditionally — the nil *Span returned when the context carries
// no trace is a valid no-op receiver, so untraced paths (CLI runs,
// library use) pay a context lookup and nothing else.
//
// Recording is binary and rendering happens on read. A span keeps its
// IDs as bytes and its attributes as unformatted (key, string | int64)
// pairs in an inline slice; the first spans of a trace are carved from
// the trace's own allocation, and the finished trace itself is what the
// recorder holds. Hex IDs, attribute maps and SpanData/TraceData are
// built only when a trace is read (/debug/traces, the slow-request
// log, fleet stitching).
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace: 16 random bytes, rendered as 32 hex
// digits (the W3C trace-id field).
type TraceID [16]byte

// SpanID identifies one span within a trace: 8 random bytes, rendered
// as 16 hex digits (the W3C parent-id field).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

func (id TraceID) String() string {
	var b [2 * len(id)]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

func (id SpanID) String() string {
	var b [2 * len(id)]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// NewTraceID mints a random trace ID.
func NewTraceID() TraceID {
	var id TraceID
	fillRandom(id[:])
	return id
}

// NewSpanID mints a random span ID.
func NewSpanID() SpanID {
	var id SpanID
	fillRandom(id[:])
	return id
}

// fallbackCtr seeds IDs if crypto/rand ever fails (it does not on
// supported platforms): tracing degrades to sequential IDs rather
// than panicking in the middle of serving a request.
var fallbackCtr atomic.Uint64

func fillRandom(b []byte) {
	if _, err := rand.Read(b); err == nil {
		return
	}
	n := fallbackCtr.Add(1)
	for i := range b {
		b[i] = byte(n >> ((i % 8) * 8))
	}
	b[0] |= 1 // never all-zero
}

// Attr is one span attribute: a key and a string or int64 value, kept
// unformatted until the span is read.
type Attr struct {
	key   string
	str   string
	num   int64
	isNum bool
}

// String returns a string-valued attribute.
func String(key, value string) Attr { return Attr{key: key, str: value} }

// Int returns an integer-valued attribute.
func Int(key string, v int64) Attr { return Attr{key: key, num: v, isNum: true} }

// value renders the attribute's value as a read span shows it.
func (a Attr) value() string {
	if a.isNum {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

// Span is one timed operation inside a trace. The nil *Span is a
// valid no-op receiver for every method, so callers record spans
// unconditionally and pay nothing when no trace is active.
type Span struct {
	tr     *activeTrace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	dur    time.Duration

	mu     sync.Mutex
	ended  bool
	attrs  []Attr
	inline [3]Attr // attrs' first backing array
}

// Set attaches a string attribute, returning the span for chaining.
func (s *Span) Set(key, value string) *Span { return s.set(String(key, value)) }

// SetInt attaches an integer attribute, returning the span for
// chaining.
func (s *Span) SetInt(key string, v int64) *Span { return s.set(Int(key, v)) }

// set records a; a key already set is overwritten. Attributes set
// after End are dropped.
func (s *Span) set(a Attr) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.ended {
		s.put(a)
	}
	s.mu.Unlock()
	return s
}

func (s *Span) put(a Attr) {
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			return
		}
	}
	if s.attrs == nil {
		s.attrs = s.inline[:0]
	}
	s.attrs = append(s.attrs, a)
}

// TraceID returns the owning trace's ID (zero for the nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tr.id
}

// Traceparent renders the span as an outgoing W3C traceparent header
// ("" for the nil span).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.tr.id, s.id)
}

// End completes the span with its measured wall-clock duration and
// records it into the trace. Ending the root span publishes the
// whole trace to the recorder. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.finish(time.Since(s.start))
}

// EndWith completes the span with an explicit duration — for
// synthetic spans whose time was accumulated elsewhere (e.g. total
// kernel-computation time, which has no single contiguous interval).
func (s *Span) EndWith(d time.Duration) {
	if s == nil {
		return
	}
	s.finish(d)
}

func (s *Span) finish(d time.Duration) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = d
	s.mu.Unlock()
	s.tr.record(s)
}

// activeTrace accumulates the completed spans of one in-flight trace.
// When the root span ends, the trace itself is published to the
// recorder and never written again. Spans ending after the root (a bug
// in the instrumented code) are dropped.
type activeTrace struct {
	id   TraceID
	rec  *Recorder
	node string // the recorder's node ID, stamped on publish

	carved atomic.Int32 // spans handed out from inline

	mu      sync.Mutex
	spans   []*Span // completed spans, in completion order (root last)
	dropped int
	done    bool

	// The first spans of the trace live here, so a short trace is one
	// allocation; inline[0] is the root.
	inline  [2]Span
	spanBuf [4]*Span // spans' first backing array
}

// maxSpansPerTrace bounds one trace's recorded spans: a large batch
// sweep records several spans per scenario, and an unbounded trace
// would hold the whole sweep in memory. Past the cap, child spans are
// counted in TraceData.Dropped instead of stored.
const maxSpansPerTrace = 4096

// newSpan starts a span of t.
func (t *activeTrace) newSpan(parent SpanID, name string, start time.Time) *Span {
	var s *Span
	if i := int(t.carved.Add(1)) - 1; i < len(t.inline) {
		s = &t.inline[i]
	} else {
		s = new(Span)
	}
	s.tr, s.id, s.parent, s.name, s.start = t, NewSpanID(), parent, name, start
	return s
}

func (t *activeTrace) record(s *Span) {
	root := s == &t.inline[0]
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	if !root && len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		t.mu.Unlock()
		return
	}
	if t.spans == nil {
		t.spans = t.spanBuf[:0]
	}
	t.spans = append(t.spans, s)
	t.done = root
	t.mu.Unlock()
	if root && t.rec != nil {
		t.rec.add(t)
	}
}

type ctxKey struct{}

// ContextWithSpan returns ctx carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns ctx's active span, or nil (the no-op span) when
// none was started.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartRoot begins a new trace rooted at one unit of work. A valid
// inbound W3C traceparent header is honored — the new trace adopts
// the caller's trace ID and the root span parents to the caller's
// span — so traces survive crossing process boundaries; a malformed
// or empty header mints a fresh trace ID. The trace is published to
// rec (which may be nil) when the returned root span ends.
func StartRoot(ctx context.Context, rec *Recorder, name, traceparent string) (context.Context, *Span) {
	tid, parent, ok := ParseTraceparent(traceparent)
	if !ok {
		tid = NewTraceID()
		parent = SpanID{}
	}
	tr := &activeTrace{id: tid, rec: rec}
	s := tr.newSpan(parent, name, time.Now())
	return ContextWithSpan(ctx, s), s
}

// StartSpan begins a child of ctx's active span. Without an active
// span it returns ctx unchanged and the nil no-op span, so callers
// never need to branch on whether tracing is on.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.newSpan(parent.id, name, time.Now())
	return ContextWithSpan(ctx, s), s
}

// AddSpan records an already-measured child of ctx's active span —
// for phases whose time was accumulated across many non-contiguous
// intervals. No-op without an active span.
func AddSpan(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...Attr) {
	parent := FromContext(ctx)
	if parent == nil {
		return
	}
	s := parent.tr.newSpan(parent.id, name, start)
	for _, a := range attrs {
		s.put(a)
	}
	s.finish(d)
}

// OutgoingTraceparent renders the traceparent header for an outgoing
// request: the active span's identity when ctx carries one, otherwise
// a freshly minted trace — so the callee's spans share one trace ID
// either way and the caller can correlate by the echoed header.
func OutgoingTraceparent(ctx context.Context) string {
	if s := FromContext(ctx); s != nil {
		return s.Traceparent()
	}
	return FormatTraceparent(NewTraceID(), NewSpanID())
}
