package compiled

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/machine"
)

// Pricer caches compiled templates and serves mesh pricing by
// evaluating the cached template at the requested payload:
//   - collective.MeshTemplates per selection structure — (mode, mesh
//     geometry, pattern, dims, force) — for macro-communications;
//   - collective.PatternTemplates per message pattern — (mesh
//     geometry, distribution, data-flow matrix, offset, grid size) —
//     for decomposed phases and general communications.
//
// Template compilation is byte-independent, so one template prices
// every payload (and every link-cost calibration of its geometry);
// evaluation is allocation-free and bit-identical to the cold path it
// replaces (collective.Select*, Mesh2D.Time).
//
// A Pricer is safe for concurrent use; template compilation is
// single-flight per key. The nil *Pricer is valid and falls back to
// cold selection, so callers can thread an optional pricer without
// guarding call sites.
type Pricer struct {
	mu   sync.Mutex
	tmpl map[string]*tmplSlot
	bld  map[string]*builderSlot
	pat  map[patternKey]*patternSlot

	hits, misses atomic.Uint64
	evals        atomic.Uint64
}

type tmplSlot struct {
	once sync.Once
	t    *collective.MeshTemplate
}

// builderSlot serializes template compilation per mesh geometry: all
// templates of one geometry build through one shared
// collective.TemplateBuilder, so the expensive substructure (the
// machine-spanning total line every macro template competes against,
// the per-dimension line sets, the full-plane composition) compiles
// once per geometry instead of once per template.
type builderSlot struct {
	mu sync.Mutex
	b  *collective.TemplateBuilder
}

// NewPricer returns an empty template cache.
func NewPricer() *Pricer {
	return &Pricer{tmpl: map[string]*tmplSlot{}, bld: map[string]*builderSlot{}, pat: map[patternKey]*patternSlot{}}
}

// builder returns the geometry's shared template builder, creating it
// on first use. Templates are calibration-independent, so one builder
// serves every mesh instance of the geometry.
func (pr *Pricer) builder(m *machine.Mesh2D) *builderSlot {
	k := fmt.Sprintf("%dx%d", m.P, m.Q)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	bs, ok := pr.bld[k]
	if !ok {
		bs = &builderSlot{b: collective.NewTemplateBuilder(m)}
		pr.bld[k] = bs
	}
	return bs
}

// PricerStats snapshots the pricer's counters.
type PricerStats struct {
	// Templates is the number of compiled templates held.
	Templates int
	// TemplateHits/TemplateMisses count template-cache lookups; a miss
	// compiled a new template.
	TemplateHits, TemplateMisses uint64
	// Evals counts template evaluations (one per priced selection).
	Evals uint64
}

// Stats snapshots the counters (zero for a nil pricer).
func (pr *Pricer) Stats() PricerStats {
	if pr == nil {
		return PricerStats{}
	}
	pr.mu.Lock()
	n := len(pr.tmpl) + len(pr.pat)
	pr.mu.Unlock()
	return PricerStats{
		Templates:      n,
		TemplateHits:   pr.hits.Load(),
		TemplateMisses: pr.misses.Load(),
		Evals:          pr.evals.Load(),
	}
}

// templateKey identifies one selection structure. Everything
// byte-independent that Select* reads is in the key; bytes and the
// link-cost calibration are evaluation inputs.
func templateKey(mode string, m *machine.Mesh2D, p collective.Pattern, dims []int, force string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%dx%d|%s|", mode, m.P, m.Q, p)
	for i, d := range dims {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte('|')
	b.WriteString(force)
	return b.String()
}

// template returns the compiled template for key, compiling it at
// most once concurrently through the geometry's shared builder, and
// counts one evaluation.
func (pr *Pricer) template(m *machine.Mesh2D, key string, build func(*collective.TemplateBuilder) *collective.MeshTemplate) *collective.MeshTemplate {
	pr.mu.Lock()
	slot, ok := pr.tmpl[key]
	if !ok {
		slot = &tmplSlot{}
		pr.tmpl[key] = slot
	}
	pr.mu.Unlock()
	if ok {
		pr.hits.Add(1)
	} else {
		pr.misses.Add(1)
	}
	slot.once.Do(func() {
		bs := pr.builder(m)
		bs.mu.Lock()
		defer bs.mu.Unlock()
		slot.t = build(bs.b)
	})
	pr.evals.Add(1)
	return slot.t
}

// SelectMesh is collective.SelectMesh(m, p, 0, bytes, force) through
// the template cache.
func (pr *Pricer) SelectMesh(m *machine.Mesh2D, p collective.Pattern, bytes int64, force string) collective.Choice {
	if pr == nil {
		return collective.SelectMesh(m, p, 0, bytes, force)
	}
	return pr.template(m, templateKey("total", m, p, nil, force), func(b *collective.TemplateBuilder) *collective.MeshTemplate {
		return b.Total(p, force)
	}).Eval(m, bytes)
}

// SelectMeshDim is collective.SelectMeshDim through the template
// cache.
func (pr *Pricer) SelectMeshDim(m *machine.Mesh2D, p collective.Pattern, dim int, bytes int64, force string) collective.Choice {
	if pr == nil {
		return collective.SelectMeshDim(m, p, dim, bytes, force)
	}
	return pr.template(m, templateKey("dim", m, p, []int{dim}, force), func(b *collective.TemplateBuilder) *collective.MeshTemplate {
		return b.Dim(p, dim, force)
	}).Eval(m, bytes)
}

// SelectMeshMacro is collective.SelectMeshMacro through the template
// cache.
func (pr *Pricer) SelectMeshMacro(m *machine.Mesh2D, p collective.Pattern, dims []int, bytes int64, force string) collective.Choice {
	if pr == nil {
		return collective.SelectMeshMacro(m, p, dims, bytes, force)
	}
	return pr.template(m, templateKey("macro", m, p, dims, force), func(b *collective.TemplateBuilder) *collective.MeshTemplate {
		return b.Macro(p, dims, force)
	}).Eval(m, bytes)
}
