package collective

import (
	"fmt"

	"repro/internal/machine"
)

// The template layer is the compiled form of mesh collective
// selection: everything byte-independent — line sets, candidate
// schedule shapes, and each round's contention partition (which
// messages serialize into which conflict round, a function of message
// paths only) — is computed once per (mesh geometry, pattern, dims,
// force) and frozen into a MeshTemplate. Evaluating the template at a
// payload is then pure arithmetic over the frozen structure: per
// contention group, the payload-dependent message sizes reduce to a
// handful of coef·ceil(B/div) terms whose max is the group's
// serialized transfer size. Eval allocates nothing and returns
// bit-identical Choices to the Select* functions it compiles.

// byteTerm is one symbolic message-size term of a contention group:
// coef · ceil(B/div) bytes at payload B.
type byteTerm struct {
	coef, div int64
}

// contGroup is one contention round of a schedule round: the messages
// that run concurrently, reduced to their hop maximum and the deduped
// size terms (per div, only the max coef can ever win the max).
type contGroup struct {
	maxHops int
	terms   []byteTerm
}

// addTerm folds one message's size term into the group.
func (g *contGroup) addTerm(coef, div int64) {
	for i := range g.terms {
		if g.terms[i].div == div {
			if coef > g.terms[i].coef {
				g.terms[i].coef = coef
			}
			return
		}
	}
	g.terms = append(g.terms, byteTerm{coef: coef, div: div})
}

// maxBytes evaluates the group's largest message at payload B.
func (g *contGroup) maxBytes(b int64) int64 {
	mb := int64(0)
	for _, t := range g.terms {
		if v := t.coef * ((b + t.div - 1) / t.div); v > mb {
			mb = v
		}
	}
	return mb
}

// pricedRound is one schedule round with its precomputed contention
// partition, groups in creation (pricing) order.
type pricedRound struct {
	groups []contGroup
}

// foldRounds prices a priced round sequence starting from a running
// total, with exactly Mesh2D.Time's float accumulation: each schedule
// round's contention groups accumulate into their own subtotal (as
// Time does), which then adds to the running total (as MeshCost
// does). The start parameter is what makes two-phase compositions
// bit-exact: folding phase 2 from phase 1's cost reproduces the
// single-sequence fold over the concatenation.
func foldRounds(rounds []pricedRound, m *machine.Mesh2D, bytes int64, start float64) float64 {
	total := start
	for i := range rounds {
		t := 0.0
		for gi := range rounds[i].groups {
			g := &rounds[i].groups[gi]
			t += m.Startup + float64(g.maxBytes(bytes))*m.PerByte + float64(g.maxHops)*m.HopLatency
		}
		total += t
	}
	return total
}

// compileSeq freezes a symbolic schedule's contention structure under
// the pattern: reductions compile their mirrored execution (reversed
// rounds, swapped endpoints), whose paths — and therefore contention
// partition — differ from the broadcast orientation under XY routing.
func (e *evaluator) compileSeq(shapes []shapeRound, p Pattern) []pricedRound {
	out := make([]pricedRound, len(shapes))
	if p == Reduction {
		for i := len(shapes) - 1; i >= 0; i-- {
			out[len(shapes)-1-i] = e.compileRound(shapes[i], true)
		}
		return out
	}
	for i := range shapes {
		out[i] = e.compileRound(shapes[i], false)
	}
	return out
}

// compileRound partitions one round into contention groups via the
// coster's byte-independent packing and collects each group's hop
// maximum and size terms.
func (e *evaluator) compileRound(sr shapeRound, mirror bool) pricedRound {
	if cap(e.buf) < len(sr) {
		e.buf = make([]machine.Message, len(sr))
	}
	buf := e.buf[:len(sr)]
	for j, sm := range sr {
		if mirror {
			buf[j] = machine.Message{Src: sm.dst, Dst: sm.src}
		} else {
			buf[j] = machine.Message{Src: sm.src, Dst: sm.dst}
		}
	}
	if cap(e.asg) < len(sr) {
		e.asg = make([]int, len(sr))
	}
	assign := e.asg[:len(sr)]
	nr := e.ev.Assign(buf, assign)
	groups := make([]contGroup, nr)
	for i := range groups {
		_, groups[i].maxHops = e.ev.Round(i)
	}
	for j, sm := range sr {
		if assign[j] >= 0 {
			groups[assign[j]].addTerm(sm.coef, sm.div)
		}
	}
	return pricedRound{groups: groups}
}

// variantTemplate is one compiled candidate schedule of an algorithm.
type variantTemplate struct {
	minBytes int64
	nrounds  int
	// main is the schedule priced under the template's pattern, in
	// execution order.
	main []pricedRound
	// bcast is the broadcast orientation, kept only when the algorithm
	// has several variants and the pattern is a reduction: variant
	// selection has always segmented on broadcast cost.
	bcast []pricedRound
}

// algoTemplate is one algorithm's compiled candidates.
type algoTemplate struct {
	name     string
	variants []variantTemplate
}

// pick selects the variant for the payload, mirroring
// evaluator.pickVariant: cheapest applicable by broadcast cost,
// earlier variants winning ties.
func (a *algoTemplate) pick(m *machine.Mesh2D, bytes int64) *variantTemplate {
	if len(a.variants) == 1 {
		return &a.variants[0]
	}
	var best *variantTemplate
	bestCost := -1.0
	for i := range a.variants {
		v := &a.variants[i]
		if v.minBytes > 0 && bytes < v.minBytes {
			continue
		}
		seq := v.bcast
		if seq == nil {
			seq = v.main
		}
		cost := foldRounds(seq, m, bytes, 0)
		if bestCost < 0 || cost < bestCost {
			best, bestCost = v, cost
		}
	}
	return best
}

// lineTemplate is the compiled form of one selectShapes call: the
// applicable algorithms (force and totalOnly filters are
// byte-independent, so they resolve at compile time, including the
// fall-back to free selection when force names nothing applicable).
type lineTemplate struct {
	pattern Pattern
	scope   string
	algos   []algoTemplate
}

func buildLineTemplate(e *evaluator, m *machine.Mesh2D, p Pattern, ls [][]int, force, scope string) *lineTemplate {
	t := &lineTemplate{pattern: p, scope: scope}
	for _, a := range meshAlgos {
		if force != "" && a.name != force {
			continue
		}
		if a.totalOnly && scope != "" {
			continue
		}
		vs := a.shape(m, ls)
		at := algoTemplate{name: a.name, variants: make([]variantTemplate, 0, len(vs))}
		for _, v := range vs {
			vt := variantTemplate{
				minBytes: v.minBytes,
				nrounds:  len(v.rounds),
				main:     e.compileSeq(v.rounds, p),
			}
			if len(vs) > 1 && p == Reduction {
				vt.bcast = e.compileSeq(v.rounds, Broadcast)
			}
			at.variants = append(at.variants, vt)
		}
		t.algos = append(t.algos, at)
	}
	if len(t.algos) == 0 {
		return buildLineTemplate(e, m, p, ls, "", scope)
	}
	return t
}

// evalWinner selects the cheapest algorithm at the payload, returning
// the winning variant and algorithm index alongside the Choice for
// composition folds.
func (t *lineTemplate) evalWinner(m *machine.Mesh2D, bytes int64) (Choice, *variantTemplate, int) {
	best := Choice{Pattern: t.pattern, Cost: -1}
	var bestV *variantTemplate
	bestA := -1
	for ai := range t.algos {
		a := &t.algos[ai]
		v := a.pick(m, bytes)
		if v == nil {
			continue
		}
		cost := foldRounds(v.main, m, bytes, 0)
		if best.Cost < 0 || cost < best.Cost {
			best = Choice{Pattern: t.pattern, Algorithm: a.name, Scope: t.scope, Cost: cost, Rounds: v.nrounds}
			bestV, bestA = v, ai
		}
	}
	return best, bestV, bestA
}

// planeOrderTemplate compiles one dimension order of the two-phase
// plane composition. names precomputes the composed "algo1+algo2"
// rendering for every phase-algorithm pair, keeping Eval
// allocation-free.
type planeOrderTemplate struct {
	scope          string
	phase1, phase2 *lineTemplate
	names          [][]string
}

// planesTemplate compiles SelectMeshPlanes: both dimension orders,
// each phase its own line template.
type planesTemplate struct {
	pattern Pattern
	orders  [2]planeOrderTemplate
}

func buildPlanesTemplate(e *evaluator, m *machine.Mesh2D, p Pattern, planes []Plane, force string) *planesTemplate {
	t := &planesTemplate{pattern: p}
	for _, dimFirst := range []int{0, 1} {
		scope := planeScope(dimFirst)
		ls1, ls2 := planePhaseLines(m, planes, dimFirst)
		o := planeOrderTemplate{
			scope:  scope,
			phase1: buildLineTemplate(e, m, p, ls1, force, scope),
			phase2: buildLineTemplate(e, m, p, ls2, force, scope),
		}
		o.names = make([][]string, len(o.phase1.algos))
		for i := range o.phase1.algos {
			o.names[i] = make([]string, len(o.phase2.algos))
			for j := range o.phase2.algos {
				o.names[i][j] = planeAlgoName(o.phase1.algos[i].name, o.phase2.algos[j].name)
			}
		}
		t.orders[dimFirst] = o
	}
	return t
}

// eval mirrors selectPlanes. The composed cost needs no re-fold of
// the whole concatenation: MeshCost's accumulation is a left fold, so
// folding the second-executed phase from the first-executed phase's
// cost is bit-identical to pricing the concatenated rounds. For
// broadcasts phase 1 executes first; for reductions the mirrored
// composition runs phase 2's mirror first.
func (t *planesTemplate) eval(m *machine.Mesh2D, bytes int64) Choice {
	best := Choice{Pattern: t.pattern, Cost: -1}
	for oi := range t.orders {
		o := &t.orders[oi]
		ch1, v1, a1 := o.phase1.evalWinner(m, bytes)
		ch2, v2, a2 := o.phase2.evalWinner(m, bytes)
		if v1 == nil || v2 == nil {
			continue
		}
		var cost float64
		if t.pattern == Reduction {
			cost = foldRounds(v1.main, m, bytes, ch2.Cost)
		} else {
			cost = foldRounds(v2.main, m, bytes, ch1.Cost)
		}
		cand := Choice{Pattern: t.pattern, Algorithm: o.names[a1][a2],
			Scope: o.scope, Cost: cost, Rounds: v1.nrounds + v2.nrounds}
		if best.Cost < 0 || cand.Cost < best.Cost {
			best = cand
		}
	}
	return best
}

// MeshTemplate is a compiled mesh collective selection: the structure
// of one SelectMesh, SelectMeshDim or SelectMeshMacro call, reusable
// for any payload (and any link-cost calibration — the contention
// partition depends only on the grid geometry). Eval is thread-safe
// (the template is read-only after construction), allocation-free,
// and returns bit-identical Choices to the Select* call it compiles.
type MeshTemplate struct {
	p, q    int
	pattern Pattern
	// macro marks SelectMeshMacro semantics: the partial schedule
	// competes with the machine-spanning total, ties preferring the
	// partial.
	macro  bool
	total  *lineTemplate
	dim    *lineTemplate
	planes *planesTemplate
}

// TemplateBuilder compiles MeshTemplates for one mesh geometry,
// sharing the pricing scratch and the compiled substructure across
// calls: the machine-spanning total line of a (pattern, force)
// compiles once however many macro templates compete against it, and
// likewise each per-dimension line set and the full-plane
// composition. The shared pieces are read-only after construction, so
// the returned templates remain safe for concurrent Eval; the builder
// itself is not safe for concurrent use.
type TemplateBuilder struct {
	m      *machine.Mesh2D
	e      *evaluator
	totals map[string]*lineTemplate
	dims   map[string]*lineTemplate
	planes map[string]*planesTemplate
}

// NewTemplateBuilder returns an empty builder bound to the mesh
// geometry.
func NewTemplateBuilder(m *machine.Mesh2D) *TemplateBuilder {
	return &TemplateBuilder{m: m, e: newEvaluator(m),
		totals: map[string]*lineTemplate{},
		dims:   map[string]*lineTemplate{},
		planes: map[string]*planesTemplate{},
	}
}

func (b *TemplateBuilder) totalTmpl(p Pattern, force string) *lineTemplate {
	k := fmt.Sprintf("%d|%s", p, force)
	t, ok := b.totals[k]
	if !ok {
		t = buildLineTemplate(b.e, b.m, p, totalLine(b.m, 0), force, "")
		b.totals[k] = t
	}
	return t
}

func (b *TemplateBuilder) dimTmpl(p Pattern, dim int, force string) *lineTemplate {
	k := fmt.Sprintf("%d|%d|%s", p, dim, force)
	t, ok := b.dims[k]
	if !ok {
		t = buildLineTemplate(b.e, b.m, p, dimLines(b.m, dim), force, axisScope(dim))
		b.dims[k] = t
	}
	return t
}

func (b *TemplateBuilder) planesTmpl(p Pattern, force string) *planesTemplate {
	k := fmt.Sprintf("%d|%s", p, force)
	t, ok := b.planes[k]
	if !ok {
		t = buildPlanesTemplate(b.e, b.m, p, []Plane{FullPlane(b.m)}, force)
		b.planes[k] = t
	}
	return t
}

// Total compiles SelectMesh(m, p, 0, ·, force): a machine-spanning
// total collective rooted at rank 0.
func (b *TemplateBuilder) Total(p Pattern, force string) *MeshTemplate {
	return &MeshTemplate{p: b.m.P, q: b.m.Q, pattern: p, total: b.totalTmpl(p, force)}
}

// Dim compiles SelectMeshDim(m, p, dim, ·, force): concurrent
// per-line trees along one grid dimension (out-of-range dims fall
// back to the total selection, as SelectMeshDim does).
func (b *TemplateBuilder) Dim(p Pattern, dim int, force string) *MeshTemplate {
	if dim != 0 && dim != 1 {
		return b.Total(p, force)
	}
	return &MeshTemplate{p: b.m.P, q: b.m.Q, pattern: p, dim: b.dimTmpl(p, dim, force)}
}

// Macro compiles SelectMeshMacro(m, p, dims, ·, force): the partial
// schedule for the physical dims (per-line for one, per-plane for
// two) competing with the machine-spanning execution.
func (b *TemplateBuilder) Macro(p Pattern, dims []int, force string) *MeshTemplate {
	t := &MeshTemplate{p: b.m.P, q: b.m.Q, pattern: p, macro: true,
		total: b.totalTmpl(p, force)}
	switch len(dims) {
	case 0:
		t.macro = false
	case 1:
		if dims[0] != 0 && dims[0] != 1 {
			t.macro = false
			break
		}
		t.dim = b.dimTmpl(p, dims[0], force)
	default:
		t.planes = b.planesTmpl(p, force)
	}
	return t
}

// NewMeshTotalTemplate compiles SelectMesh(m, p, 0, ·, force) through
// a one-shot builder; compiling several templates of one geometry is
// cheaper through a shared TemplateBuilder.
func NewMeshTotalTemplate(m *machine.Mesh2D, p Pattern, force string) *MeshTemplate {
	return NewTemplateBuilder(m).Total(p, force)
}

// NewMeshDimTemplate compiles SelectMeshDim(m, p, dim, ·, force)
// through a one-shot builder.
func NewMeshDimTemplate(m *machine.Mesh2D, p Pattern, dim int, force string) *MeshTemplate {
	return NewTemplateBuilder(m).Dim(p, dim, force)
}

// NewMeshMacroTemplate compiles SelectMeshMacro(m, p, dims, ·, force)
// through a one-shot builder.
func NewMeshMacroTemplate(m *machine.Mesh2D, p Pattern, dims []int, force string) *MeshTemplate {
	return NewTemplateBuilder(m).Macro(p, dims, force)
}

// Eval prices the compiled selection at a payload on a mesh instance
// of the compiled geometry (m supplies the link-cost calibration;
// its extents must match compilation).
func (t *MeshTemplate) Eval(m *machine.Mesh2D, bytes int64) Choice {
	if m.P != t.p || m.Q != t.q {
		panic(fmt.Sprintf("collective: template compiled for %dx%d evaluated on %dx%d", t.p, t.q, m.P, m.Q))
	}
	if !t.macro {
		if t.dim != nil {
			ch, _, _ := t.dim.evalWinner(m, bytes)
			return ch
		}
		ch, _, _ := t.total.evalWinner(m, bytes)
		return ch
	}
	total, _, _ := t.total.evalWinner(m, bytes)
	var part Choice
	switch {
	case t.dim != nil:
		part, _, _ = t.dim.evalWinner(m, bytes)
	case t.planes != nil:
		part = t.planes.eval(m, bytes)
	default:
		return total
	}
	if part.Cost <= total.Cost {
		return part
	}
	return total
}
