package compiled

import (
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
// evaluation is allocation-free. A cached mesh template returns what
// the one-shot collective.Select* returns (which compiles the same
// template and evaluates it once), and a pattern template matches
// Mesh2D.Time bit for bit.
//
// A Pricer is safe for concurrent use; template compilation is
// single-flight per key. The nil *Pricer is valid and falls back to
// cold selection, so callers can thread an optional pricer without
// guarding call sites.
type Pricer struct {
	mu   sync.Mutex
	tmpl map[templateKey]*tmplSlot
	bld  map[[2]int]*builderSlot
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
	return &Pricer{tmpl: map[templateKey]*tmplSlot{}, bld: map[[2]int]*builderSlot{}, pat: map[patternKey]*patternSlot{}}
}

// builder returns the geometry's shared template builder, creating it
// on first use. Templates are calibration-independent, so one builder
// serves every mesh instance of the geometry.
func (pr *Pricer) builder(m *machine.Mesh2D) *builderSlot {
	k := [2]int{m.P, m.Q}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	bs, ok := pr.bld[k]
	if !ok {
		bs = &builderSlot{b: collective.NewTemplateBuilder(heapMesh(m))}
		pr.bld[k] = bs
	}
	return bs
}

// heapMesh copies a mesh for code that keeps it. Pricing callers pass
// meshes they own, often on their stack; only compilation and cold
// selection retain one, so only they pay for the copy.
func heapMesh(m *machine.Mesh2D) *machine.Mesh2D {
	c := *m
	return &c
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

// templateMode is the selection structure a template compiles.
type templateMode uint8

const (
	modeTotal templateMode = iota // SelectMesh
	modeDim                       // SelectMeshDim
	modeMacro                     // SelectMeshMacro
)

// maxKeyDims bounds the dims a template key holds. A macro's physical
// dims are distinct mesh axes, so real keys hold at most two; longer
// dims lists select cold.
const maxKeyDims = 4

// templateKey identifies one selection structure. Everything
// byte-independent that Select* reads is in the key; bytes and the
// link-cost calibration are evaluation inputs.
type templateKey struct {
	mode    templateMode
	p, q    int
	pattern collective.Pattern
	ndims   int
	dims    [maxKeyDims]int
	force   string
}

func newTemplateKey(mode templateMode, m *machine.Mesh2D, p collective.Pattern, dims []int, force string) templateKey {
	k := templateKey{mode: mode, p: m.P, q: m.Q, pattern: p, ndims: len(dims), force: force}
	copy(k.dims[:], dims)
	return k
}

// template returns the compiled template for k, compiling it at most
// once concurrently through the geometry's shared builder, and counts
// one evaluation.
func (pr *Pricer) template(m *machine.Mesh2D, k templateKey) *collective.MeshTemplate {
	pr.mu.Lock()
	slot, ok := pr.tmpl[k]
	if !ok {
		slot = &tmplSlot{}
		pr.tmpl[k] = slot
	}
	pr.mu.Unlock()
	if ok {
		pr.hits.Add(1)
	} else {
		pr.misses.Add(1)
	}
	slot.once.Do(func() { slot.t = pr.compile(m, k) })
	pr.evals.Add(1)
	return slot.t
}

// compile builds the template k names through the geometry's shared
// builder.
func (pr *Pricer) compile(m *machine.Mesh2D, k templateKey) *collective.MeshTemplate {
	bs := pr.builder(m)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	switch k.mode {
	case modeDim:
		return bs.b.Dim(k.pattern, k.dims[0], k.force)
	case modeMacro:
		return bs.b.Macro(k.pattern, k.dims[:k.ndims], k.force)
	default:
		return bs.b.Total(k.pattern, k.force)
	}
}

// SelectMesh is collective.SelectMesh(m, p, 0, bytes, force) through
// the template cache.
func (pr *Pricer) SelectMesh(m *machine.Mesh2D, p collective.Pattern, bytes int64, force string) collective.Choice {
	if pr == nil {
		return collective.SelectMesh(heapMesh(m), p, 0, bytes, force)
	}
	return pr.template(m, newTemplateKey(modeTotal, m, p, nil, force)).Eval(m, bytes)
}

// SelectMeshDim is collective.SelectMeshDim through the template
// cache.
func (pr *Pricer) SelectMeshDim(m *machine.Mesh2D, p collective.Pattern, dim int, bytes int64, force string) collective.Choice {
	if pr == nil {
		return collective.SelectMeshDim(heapMesh(m), p, dim, bytes, force)
	}
	return pr.template(m, newTemplateKey(modeDim, m, p, []int{dim}, force)).Eval(m, bytes)
}

// SelectMeshMacro is collective.SelectMeshMacro through the template
// cache.
func (pr *Pricer) SelectMeshMacro(m *machine.Mesh2D, p collective.Pattern, dims []int, bytes int64, force string) collective.Choice {
	if pr == nil || len(dims) > maxKeyDims {
		return collective.SelectMeshMacro(heapMesh(m), p, dims, bytes, force)
	}
	return pr.template(m, newTemplateKey(modeMacro, m, p, dims, force)).Eval(m, bytes)
}
