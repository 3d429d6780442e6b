package metrics

import (
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// ContentTypeOpenMetrics is the Content-Type of the OpenMetrics
// exposition format, served when the scraper asks for it (Prometheus
// sends it in Accept when exemplar ingestion is enabled).
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics renders every family in the OpenMetrics text
// format: same sample values as WriteText, plus bucket exemplars and
// the mandatory # EOF terminator. Counter families drop their _total
// suffix in the metadata lines, as the format requires.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
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
		if err := f.writeOpenMetrics(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (f *family) writeOpenMetrics(w io.Writer) error {
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
		return nil
	}
	// OpenMetrics names the counter family without the _total suffix
	// its samples carry.
	famName := f.name
	if f.typ == "counter" {
		famName = strings.TrimSuffix(famName, "_total")
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", famName, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", famName, f.typ); err != nil {
		return err
	}
	for _, c := range children {
		if err := f.writeChildOpenMetrics(w, c); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeChildOpenMetrics(w io.Writer, c *child) error {
	if f.typ != "histogram" {
		// Counters and gauges render exactly as in the text format (the
		// counter sample keeps its _total name).
		return f.writeChild(w, c)
	}
	if c.hfn != nil {
		// Snapshot histograms carry no exemplars; the text rendering is
		// already valid OpenMetrics.
		return f.writeHistSnapshot(w, c, c.hfn())
	}
	d := c.hist
	var cum uint64
	for i := 0; i <= len(f.buckets); i++ {
		bound := math.Inf(+1)
		if i < len(f.buckets) {
			cum += d.counts[i].Load()
			bound = f.buckets[i]
		} else {
			cum += d.inf.Load()
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
			renderLabels(f.labels, c.labelValues, "le", bound), cum,
			renderExemplar(d.exemplars[i].Load())); err != nil {
			return err
		}
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

// renderExemplar renders ` # {trace_id="<32 hex>"} value`, or "" for
// nil.
func renderExemplar(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return ` # {trace_id="` + hex.EncodeToString(e.TraceID[:]) + `"} ` + formatFloat(e.Value)
}

// AcceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics format.
func AcceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}
