// Package metrics is a dependency-free Prometheus-style metric
// registry: counters, gauges and histograms — plain, labeled, or
// backed by a read callback — rendered in the Prometheus text
// exposition format (version 0.0.4) for a GET /metrics scrape.
//
// The package exists so the daemon's observability layer does not
// drag a client library into a module that otherwise has zero
// external dependencies. It implements exactly the subset the
// resoptd ops listener needs:
//
//   - Counter / CounterVec: monotone uint64 counts (request totals,
//     bytes, sweep work);
//   - Gauge / GaugeVec: instantaneous float64 values (in-flight
//     requests, queue depth, per-tier store sizes);
//   - Histogram / HistogramVec: fixed-bucket latency distributions
//     with _bucket/_sum/_count exposition;
//   - func-backed counters and gauges (WithFunc / NewCounterFunc /
//     NewGaugeFunc), which read an existing atomic counter at scrape
//     time instead of double-counting alongside it — this is how the
//     engine's CacheStats and the store's traffic counters are
//     exported without touching their hot paths;
//   - OnCollect hooks, run at the start of every scrape, for gauges
//     whose value is a snapshot of external state (job lifecycle
//     states, store tier sizes).
//
// All metric types are safe for concurrent use. Registration is not:
// register everything up front (duplicate or malformed names panic —
// they are programmer errors), then share the registry freely.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Registry holds a set of metric families and renders them in a
// stable order. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	fams    map[string]*family
	hooks   []func()
	collect sync.Mutex // serializes scrapes (hooks may not be reentrant)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one metric name: its metadata plus its children (one per
// distinct label-value combination; a single child with no labels for
// plain metrics).
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

// child is one sample series. Exactly one of the value holders is
// used, according to the family type: counters use num or fn, gauges
// use bits or gfn, histograms use hist or hfn.
type child struct {
	labelValues []string

	num  atomic.Uint64 // counter value
	fn   func() uint64 // counter callback (nil: use num)
	bits atomic.Uint64 // gauge value, as math.Float64bits
	gfn  func() float64
	hist *histData
	hfn  func() HistogramSnapshot // histogram callback (nil: use hist)
}

type histData struct {
	counts  []atomic.Uint64 // per-bucket (non-cumulative), one per upper bound
	inf     atomic.Uint64   // observations above the last bound
	sumBits atomic.Uint64

	// Latest exemplar per bucket (one extra slot for +Inf), kept only
	// for the OpenMetrics exposition; the 0.0.4 text format cannot
	// carry exemplars and ignores these.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one observed value to the trace that produced it. It
// keeps the trace ID in binary and is rendered on histogram bucket
// lines only under the OpenMetrics format (e.g.
// `... # {trace_id="4bf9…"} 0.032`).
type Exemplar struct {
	TraceID [16]byte
	Value   float64
}

// nameOK reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* (colons are reserved for rules, but
// accepted here like the reference client does).
func nameOK(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register creates a family, panicking on duplicate or invalid names.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	if !nameOK(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !nameOK(l) || l == "le" {
			panic("metrics: invalid label name " + strconv.Quote(l) + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic("metrics: duplicate registration of " + name)
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets,
		children: make(map[string]*child)}
	r.fams[name] = f
	return f
}

// OnCollect registers a hook run at the start of every scrape, before
// any family is rendered. Use it to refresh gauges that mirror
// external state (job states, store tier sizes).
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// childFor returns (creating if needed) the child for the given label
// values, which must match the family's label names in count.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		if f.typ == "histogram" {
			c.hist = &histData{
				counts:    make([]atomic.Uint64, len(f.buckets)),
				exemplars: make([]atomic.Pointer[Exemplar], len(f.buckets)+1),
			}
		}
		f.children[key] = c
	}
	return c
}

func labelKey(values []string) string { return strings.Join(values, "\x00") }

// --- Counter ---

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ c *child }

// Inc adds one.
func (c Counter) Inc() { c.c.num.Add(1) }

// Add adds n.
func (c Counter) Add(n uint64) { c.c.num.Add(n) }

// Value returns the current count (func-backed counters read their
// callback).
func (c Counter) Value() uint64 {
	if c.c.fn != nil {
		return c.c.fn()
	}
	return c.c.num.Load()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v CounterVec) With(values ...string) Counter {
	c := v.f.childFor(values)
	if c.fn != nil {
		panic("metrics: " + v.f.name + ": series is func-backed")
	}
	return Counter{c}
}

// WithFunc binds the series for the given label values to a read
// callback evaluated at scrape time. The callback must be monotone
// for the exposition to be a valid counter.
func (v CounterVec) WithFunc(fn func() uint64, values ...string) {
	v.f.childFor(values).fn = fn
}

// NewCounter registers a plain counter.
func (r *Registry) NewCounter(name, help string) Counter {
	f := r.register(name, help, "counter", nil, nil)
	return Counter{f.childFor(nil)}
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, "counter", nil, nil)
	f.childFor(nil).fn = fn
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, "counter", labels, nil)}
}

// --- Gauge ---

// Gauge is an instantaneous float64 metric.
type Gauge struct{ c *child }

// Set replaces the value.
func (g Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative to subtract).
func (g Gauge) Add(delta float64) {
	for {
		old := g.c.bits.Load()
		if g.c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g Gauge) Value() float64 {
	if g.c.gfn != nil {
		return g.c.gfn()
	}
	return math.Float64frombits(g.c.bits.Load())
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v GaugeVec) With(values ...string) Gauge {
	c := v.f.childFor(values)
	if c.gfn != nil {
		panic("metrics: " + v.f.name + ": series is func-backed")
	}
	return Gauge{c}
}

// WithFunc binds the series for the given label values to a read
// callback evaluated at scrape time.
func (v GaugeVec) WithFunc(fn func() float64, values ...string) {
	v.f.childFor(values).gfn = fn
}

// NewGauge registers a plain gauge.
func (r *Registry) NewGauge(name, help string) Gauge {
	f := r.register(name, help, "gauge", nil, nil)
	return Gauge{f.childFor(nil)}
}

// NewGaugeFunc registers a gauge whose value is read from fn at
// scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil, nil)
	f.childFor(nil).gfn = fn
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, "gauge", labels, nil)}
}

// --- Histogram ---

// DefBuckets are the default latency buckets, in seconds.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket distribution metric.
type Histogram struct {
	c      *child
	bounds []float64
}

// Observe records one value.
func (h Histogram) Observe(v float64) {
	d := h.c.hist
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if idx < len(d.counts) {
		d.counts[idx].Add(1)
	} else {
		d.inf.Add(1)
	}
	for {
		old := d.sumBits.Load()
		if d.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveWithExemplar records one value and attaches an exemplar
// naming traceID to the bucket it lands in, replacing that bucket's
// previous exemplar. The all-zero ID degrades to a plain Observe.
func (h Histogram) ObserveWithExemplar(v float64, traceID [16]byte) {
	h.Observe(v)
	if traceID == [16]byte{} {
		return
	}
	d := h.c.hist
	idx := sort.SearchFloat64s(h.bounds, v)
	d.exemplars[idx].Store(&Exemplar{TraceID: traceID, Value: v})
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v HistogramVec) With(values ...string) Histogram {
	return Histogram{v.f.childFor(values), v.f.buckets}
}

// checkBuckets validates and copies histogram upper bounds.
func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: " + name + ": buckets not strictly increasing")
		}
	}
	// Strip a trailing +Inf: the format's implicit last bucket.
	if math.IsInf(buckets[len(buckets)-1], +1) {
		buckets = buckets[:len(buckets)-1]
	}
	return append([]float64(nil), buckets...)
}

// NewHistogram registers a plain histogram over the given upper
// bounds (nil: DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) Histogram {
	f := r.register(name, help, "histogram", nil, checkBuckets(name, buckets))
	return Histogram{f.childFor(nil), f.buckets}
}

// NewHistogramVec registers a labeled histogram family over the given
// upper bounds (nil: DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	return HistogramVec{r.register(name, help, "histogram", labels, checkBuckets(name, buckets))}
}

// HistogramSnapshot is one scrape-time view of a distribution whose
// buckets live outside the registry — the return type of the callback
// behind NewHistogramFunc. Counts are non-cumulative and one longer
// than Bounds; the extra final slot counts observations above the last
// bound (the +Inf bucket).
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// NewHistogramFunc registers a histogram whose buckets, counts and sum
// are read from fn at every scrape — for distributions maintained
// elsewhere (e.g. the Go runtime's GC pause histogram) that cannot be
// fed through Observe. The snapshot's counts must be monotone across
// scrapes for the exposition to be a valid histogram.
func (r *Registry) NewHistogramFunc(name, help string, fn func() HistogramSnapshot) {
	f := r.register(name, help, "histogram", nil, nil)
	f.childFor(nil).hfn = fn
}

// --- Exposition ---

// WriteText renders every family in the Prometheus text format,
// sorted by metric name (children sorted by label values), after
// running the collect hooks.
func (r *Registry) WriteText(w io.Writer) error {
	r.collect.Lock()
	defer r.collect.Unlock()
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	sort.Strings(names)
	for _, n := range names {
		r.mu.Lock()
		f := r.fams[n]
		r.mu.Unlock()
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the exposition (the
// GET /metrics endpoint): the 0.0.4 text format by default, or
// OpenMetrics — which carries histogram exemplars — when the scraper
// negotiates it via Accept.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if AcceptsOpenMetrics(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", ContentTypeOpenMetrics)
			r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		r.WriteText(w)
	})
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	children := make([]*child, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()
	if len(children) == 0 {
		return nil // labeled family with no series yet: skip entirely
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	for _, c := range children {
		if err := f.writeChild(w, c); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeChild(w io.Writer, c *child) error {
	switch f.typ {
	case "counter":
		v := c.num.Load()
		if c.fn != nil {
			v = c.fn()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(f.labels, c.labelValues, "", 0), v)
		return err
	case "gauge":
		v := math.Float64frombits(c.bits.Load())
		if c.gfn != nil {
			v = c.gfn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, c.labelValues, "", 0), formatFloat(v))
		return err
	case "histogram":
		if c.hfn != nil {
			return f.writeHistSnapshot(w, c, c.hfn())
		}
		d := c.hist
		var cum uint64
		for i, bound := range f.buckets {
			cum += d.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				renderLabels(f.labels, c.labelValues, "le", bound), cum); err != nil {
				return err
			}
		}
		cum += d.inf.Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			renderLabels(f.labels, c.labelValues, "le", math.Inf(+1)), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
			renderLabels(f.labels, c.labelValues, "", 0),
			formatFloat(math.Float64frombits(d.sumBits.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name,
			renderLabels(f.labels, c.labelValues, "", 0), cum)
		return err
	}
	return nil
}

// writeHistSnapshot renders a func-backed histogram from one snapshot.
// A short Counts slice is tolerated (missing buckets read as zero) so
// a misbehaving callback degrades instead of panicking a scrape.
func (f *family) writeHistSnapshot(w io.Writer, c *child, s HistogramSnapshot) error {
	var cum uint64
	for i, bound := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			renderLabels(f.labels, c.labelValues, "le", bound), cum); err != nil {
			return err
		}
	}
	if len(s.Counts) > len(s.Bounds) {
		cum += s.Counts[len(s.Bounds)]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
		renderLabels(f.labels, c.labelValues, "le", math.Inf(+1)), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
		renderLabels(f.labels, c.labelValues, "", 0), formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name,
		renderLabels(f.labels, c.labelValues, "", 0), cum)
	return err
}

// renderLabels renders a {k="v",...} block, appending an le label for
// histogram buckets; empty when there are no labels at all.
func renderLabels(names, values []string, le string, bound float64) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		if math.IsInf(bound, +1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatFloat(bound))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
