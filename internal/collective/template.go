package collective

import (
	"fmt"
	"slices"

	"repro/internal/machine"
)

// The template layer is how mesh collectives are selected: everything
// byte-independent — line sets, candidate schedule shapes, and each
// round's contention partition (which messages serialize into which
// conflict round, a function of message paths only) — is computed once
// per (mesh geometry, pattern, dims, force) and frozen into a
// template. Compilation streams: each round is packed as its emitter
// hands it over and is never stored as messages, and a repeated round
// (emitted once with its count, or equal in partition to the round
// before) compiles to one priced round with a repeat count. A
// pipelined chain is not packed round by round at all when its line
// set's hops are link-disjoint (evaluator.chainHops), and equal
// partitions within a variant share one copy (evaluator.intern), so a
// template's size and compile work follow the schedule's distinct
// structure rather than its message volume. Evaluating the template
// at a payload is then pure arithmetic over the frozen structure: per
// contention group, the payload-dependent message sizes reduce to a
// handful of coef·ceil(B/div) terms whose max is the group's
// serialized transfer size, priced bit-identically to Mesh2D.Time
// over the materialized rounds. The cold Select* functions compile a
// template and evaluate it once; compiled.Pricer caches templates
// across calls. Eval allocates nothing.

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
// partition, groups in creation (pricing) order, and the number of
// times it runs back to back: consecutive rounds with equal
// partitions compile to one pricedRound. groups is read-only and may
// be shared with other rounds of the variant that partition equally.
type pricedRound struct {
	groups []contGroup
	rep    int
}

// foldRounds prices a priced round sequence starting from a running
// total, with exactly Mesh2D.Time's float accumulation: each schedule
// round's contention groups accumulate into their own subtotal (as
// Time does), which then adds to the running total (as MeshCost
// does) once per repeat — the same additions, in the same order, as
// pricing every repeat on its own. The start parameter is what makes
// two-phase compositions bit-exact: folding phase 2 from phase 1's
// cost reproduces the single-sequence fold over the concatenation.
func foldRounds(rounds []pricedRound, m *machine.Mesh2D, bytes int64, start float64) float64 {
	total := start
	for i := range rounds {
		r := &rounds[i]
		t := 0.0
		for gi := range r.groups {
			g := &r.groups[gi]
			t += m.Startup + float64(g.maxBytes(bytes))*m.PerByte + float64(g.maxHops)*m.HopLatency
		}
		for k := 0; k < r.rep; k++ {
			total += t
		}
	}
	return total
}

// evaluator bundles the reusable compilation scratch for one mesh:
// the flat-state contention evaluator whose byte-independent packing
// partitions each round, the emitters' round buffer, the message,
// round-assignment and contention-group buffers every round compiles
// through, a chain's per-position hop lengths, and the partitions
// interned for the variant being compiled.
type evaluator struct {
	m        *machine.Mesh2D
	ev       *machine.CostEval
	round    shapeRound
	buf      []machine.Message
	asg      []int
	groups   []contGroup
	hops     []int
	interned [][]contGroup
}

func newEvaluator(m *machine.Mesh2D) *evaluator {
	return &evaluator{m: m, ev: machine.NewCostEval(m)}
}

// appendRound adds one compiled round — a partition in scratch — with
// its repeats to a priced sequence. A partition equal to the
// sequence's last round only adds its repeats there.
func (e *evaluator) appendRound(seq []pricedRound, gs []contGroup, rep int) []pricedRound {
	if n := len(seq); n > 0 && sameGroups(seq[n-1].groups, gs) {
		seq[n-1].rep += rep
		return seq
	}
	return append(seq, pricedRound{groups: e.intern(gs), rep: rep})
}

// intern returns the variant's stored partition equal to the scratch
// one, copying it out the first time it appears: a total line's chain
// rounds alternate between a few partitions as the window crosses the
// row wraps, and each is stored once. Sharing changes no cost, since
// foldRounds still adds every round's groups in round order.
func (e *evaluator) intern(gs []contGroup) []contGroup {
	for i := len(e.interned) - 1; i >= 0; i-- {
		if sameGroups(e.interned[i], gs) {
			return e.interned[i]
		}
	}
	c := cloneGroups(gs)
	e.interned = append(e.interned, c)
	return c
}

// compileRound partitions one round into contention groups via the
// coster's byte-independent packing, mirrored (swapped endpoints) for
// a reduction, whose paths — and therefore contention partition —
// differ from the broadcast orientation under XY routing. It collects
// each group's hop maximum and size terms into scratch valid until
// the next call.
func (e *evaluator) compileRound(sr shapeRound, mirror bool) []contGroup {
	buf := e.buf[:0]
	for _, sm := range sr {
		if mirror {
			buf = append(buf, machine.Message{Src: sm.dst, Dst: sm.src})
		} else {
			buf = append(buf, machine.Message{Src: sm.src, Dst: sm.dst})
		}
	}
	e.buf = buf
	nr := e.ev.Assign(buf, e.assignScratch(len(buf)))
	gs := e.groupScratch(nr)
	for i := range gs {
		_, gs[i].maxHops = e.ev.Round(i)
	}
	for j, sm := range sr {
		if a := e.asg[j]; a >= 0 {
			gs[a].addTerm(sm.coef, sm.div)
		}
	}
	return gs
}

// assignScratch returns the round-assignment buffer sized for n
// messages.
func (e *evaluator) assignScratch(n int) []int {
	if cap(e.asg) < n {
		e.asg = make([]int, n)
	}
	e.asg = e.asg[:n]
	return e.asg
}

// groupScratch returns n empty contention groups of scratch, their
// term buffers kept.
func (e *evaluator) groupScratch(n int) []contGroup {
	if cap(e.groups) < n {
		e.groups = append(e.groups[:cap(e.groups)], make([]contGroup, n-cap(e.groups))...)
	}
	gs := e.groups[:n]
	for i := range gs {
		gs[i].maxHops = 0
		gs[i].terms = gs[i].terms[:0]
	}
	return gs
}

// chainHops packs a line set's hops — line[i−1]→line[i] over every
// line and position, mirrored for a reduction — once with the
// evaluator's packer, and reports whether they fit one contention
// round with none local. Then no two hops share a directed link, and
// first-fit puts every message of every chain round (a subset of the
// hops) into group 0: each round's partition is one group, its
// window's longest hop with the single size term (1, s). On true,
// e.hops[i] holds the longest hop into line position i over the set.
func (e *evaluator) chainHops(ls [][]int, mirror bool) bool {
	buf := e.buf[:0]
	for _, line := range ls {
		for i := 1; i < len(line); i++ {
			if mirror {
				buf = append(buf, machine.Message{Src: line[i], Dst: line[i-1]})
			} else {
				buf = append(buf, machine.Message{Src: line[i-1], Dst: line[i]})
			}
		}
	}
	e.buf = buf
	asg := e.assignScratch(len(buf))
	if e.ev.Assign(buf, asg) != 1 {
		return false
	}
	for _, a := range asg {
		if a != 0 {
			return false
		}
	}
	n := maxLineLen(ls)
	if cap(e.hops) < n {
		e.hops = make([]int, n)
	}
	e.hops = e.hops[:n]
	clear(e.hops)
	for _, line := range ls {
		for i := 1; i < len(line); i++ {
			x1, y1 := e.m.Coords(line[i-1])
			x2, y2 := e.m.Coords(line[i])
			e.hops[i] = max(e.hops[i], max(x2-x1, x1-x2)+max(y2-y1, y1-y2))
		}
	}
	return true
}

// chainRounds hands the s-segment chain's rounds, compiled from the
// hop lengths chainHops left in e.hops, to add in emission order:
// round t carries the hops into positions max(1, t−s+2)..min(t+1, n−1)
// (emitChainSeg's window), all in one contention group.
func (e *evaluator) chainRounds(s int, add func(gs []contGroup)) {
	n := len(e.hops)
	gs := e.groupScratch(1)
	for t := 0; t < n-1+s-1; t++ {
		h := 0
		for i := max(1, t-s+2); i <= t+1 && i < n; i++ {
			h = max(h, e.hops[i])
		}
		gs[0].maxHops = h
		gs[0].terms = append(gs[0].terms[:0], byteTerm{coef: 1, div: int64(s)})
		add(gs)
	}
}

// sameGroups reports whether two contention partitions price
// identically at every payload: equal groups in equal order.
func sameGroups(a, b []contGroup) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].maxHops != b[i].maxHops || !slices.Equal(a[i].terms, b[i].terms) {
			return false
		}
	}
	return true
}

// cloneGroups copies a scratch partition out, every group's terms in
// one backing array.
func cloneGroups(gs []contGroup) []contGroup {
	if len(gs) == 0 {
		return nil
	}
	nt := 0
	for i := range gs {
		nt += len(gs[i].terms)
	}
	out := make([]contGroup, len(gs))
	terms := make([]byteTerm, 0, nt)
	for i := range gs {
		start := len(terms)
		terms = append(terms, gs[i].terms...)
		out[i] = contGroup{maxHops: gs[i].maxHops, terms: terms[start:len(terms):len(terms)]}
	}
	return out
}

// variantTemplate is one compiled candidate schedule of an algorithm.
type variantTemplate struct {
	minBytes int64
	// nrounds counts schedule rounds, repeats included.
	nrounds int
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
	algo     int // position in meshAlgos
	variants []variantTemplate
}

// pick returns the index of the variant for the payload: the
// cheapest applicable by broadcast cost (the orientation the chain has
// always segmented on), earlier variants winning ties; -1 when none
// applies. A single variant is taken without pricing. main is the
// winner's folded main cost when the sequence pick priced was main (a
// broadcast, or a reduction of one compiled orientation), else -1:
// the caller then folds main itself.
func (a *algoTemplate) pick(m *machine.Mesh2D, bytes int64) (best int, main float64) {
	if len(a.variants) == 1 {
		return 0, -1
	}
	best, bestCost := -1, -1.0
	for i := range a.variants {
		v := &a.variants[i]
		if v.minBytes > 0 && bytes < v.minBytes {
			continue // segments below one byte: not applicable
		}
		seq := v.bcast
		if seq == nil {
			seq = v.main
		}
		cost := foldRounds(seq, m, bytes, 0)
		if bestCost < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 || a.variants[best].bcast != nil {
		return best, -1
	}
	return best, bestCost
}

// compileAlgo compiles one algorithm's shape variants under the
// pattern, packing each round as the variant streams it. A reduction
// runs the broadcast schedule mirrored — reversed rounds, swapped
// endpoints — so its rounds compile mirrored and the compiled list is
// then reversed. Chain variants over a line set whose hops are
// link-disjoint in every compiled orientation are compiled from the
// hops instead (chainHops); the hop set is packed once for all of
// them.
func (e *evaluator) compileAlgo(name string, vs []shapeVariant, p Pattern) algoTemplate {
	at := algoTemplate{name: name, variants: make([]variantTemplate, len(vs))}
	mirror := p == Reduction
	// Variant selection has always segmented on broadcast cost, so a
	// reduction with several variants also compiles the broadcast
	// orientation, from the same stream.
	bcast := mirror && len(vs) > 1
	disjoint := len(vs) > 0 && vs[0].segs > 0 &&
		(!bcast || e.chainHops(vs[0].lines, false)) && e.chainHops(vs[0].lines, mirror)
	for i, v := range vs {
		vt := &at.variants[i]
		vt.minBytes = v.minBytes
		e.interned = e.interned[:0]
		if disjoint {
			e.chainRounds(v.segs, func(gs []contGroup) {
				vt.nrounds++
				vt.main = e.appendRound(vt.main, gs, 1)
				if bcast {
					vt.bcast = e.appendRound(vt.bcast, gs, 1)
				}
			})
		} else {
			e.round = v.emit(e.round, func(r shapeRound, rep int) {
				vt.nrounds += rep
				vt.main = e.appendRound(vt.main, e.compileRound(r, mirror), rep)
				if bcast {
					vt.bcast = e.appendRound(vt.bcast, e.compileRound(r, false), rep)
				}
			})
		}
		if mirror {
			slices.Reverse(vt.main)
		}
	}
	return at
}

// lineTemplate is the compiled selection over one line set: the
// applicable algorithms (force and totalOnly filters are
// byte-independent, so they resolve at compile time, including the
// fall-back to free selection when force names nothing applicable:
// a permute or fat-tree name, or a total-only tree on a partial
// collective).
type lineTemplate struct {
	pattern Pattern
	scope   string
	algos   []algoTemplate
}

func buildLineTemplate(e *evaluator, m *machine.Mesh2D, p Pattern, ls [][]int, force, scope string) *lineTemplate {
	t := &lineTemplate{pattern: p, scope: scope}
	for ai, a := range meshAlgos {
		if force != "" && a.name != force {
			continue
		}
		if a.totalOnly && scope != "" {
			continue
		}
		at := e.compileAlgo(a.name, a.shape(m, ls), p)
		at.algo = ai
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
		vi, cost := a.pick(m, bytes)
		if vi < 0 {
			continue
		}
		v := &a.variants[vi]
		if cost < 0 {
			cost = foldRounds(v.main, m, bytes, 0)
		}
		if best.Cost < 0 || cost < best.Cost {
			best = Choice{Pattern: t.pattern, Algorithm: a.name, Scope: t.scope, Cost: cost, Rounds: v.nrounds}
			bestV, bestA = v, ai
		}
	}
	return best, bestV, bestA
}

// planeOrderTemplate compiles one dimension order of the two-phase
// plane composition.
type planeOrderTemplate struct {
	scope          string
	phase1, phase2 *lineTemplate
}

// planesTemplate is the compiled SelectMeshPlanes: both dimension
// orders, each phase its own line template.
type planesTemplate struct {
	pattern Pattern
	orders  [2]planeOrderTemplate
}

func buildPlanesTemplate(e *evaluator, m *machine.Mesh2D, p Pattern, planes []Plane, force string) *planesTemplate {
	t := &planesTemplate{pattern: p}
	for _, dimFirst := range []int{0, 1} {
		scope := planeScope(dimFirst)
		ls1, ls2 := planePhaseLines(m, planes, dimFirst)
		t.orders[dimFirst] = planeOrderTemplate{
			scope:  scope,
			phase1: buildLineTemplate(e, m, p, ls1, force, scope),
			phase2: buildLineTemplate(e, m, p, ls2, force, scope),
		}
	}
	return t
}

// eval selects the cheapest composition over both dimension orders.
// The composed cost needs no re-fold of the whole concatenation:
// MeshCost's accumulation is a left fold, so
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
		name := planeAlgoNames[o.phase1.algos[a1].algo][o.phase2.algos[a2].algo]
		cand := Choice{Pattern: t.pattern, Algorithm: name,
			Scope: o.scope, Cost: cost, Rounds: v1.nrounds + v2.nrounds}
		if best.Cost < 0 || cand.Cost < best.Cost {
			best = cand
		}
	}
	return best
}

// MeshTemplate is a compiled mesh collective selection: the structure
// of one SelectMesh (rooted at rank 0), SelectMeshDim or
// SelectMeshMacro call, reusable for any payload (and any link-cost
// calibration — the contention partition depends only on the grid
// geometry). Eval is thread-safe (the template is read-only after
// construction) and allocation-free.
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
	lines  map[builderKey]*lineTemplate
	planes map[builderKey]*planesTemplate
}

// builderKey identifies one compiled substructure of a builder: the
// line set along dim (totalDim for the machine-spanning total line;
// the full-plane composition is always keyed with totalDim) under a
// pattern and force pin.
type builderKey struct {
	p     Pattern
	dim   int
	force string
}

// totalDim keys the structures that span the whole machine.
const totalDim = -1

// NewTemplateBuilder returns an empty builder bound to the mesh
// geometry.
func NewTemplateBuilder(m *machine.Mesh2D) *TemplateBuilder {
	return &TemplateBuilder{m: m, e: newEvaluator(m),
		lines:  map[builderKey]*lineTemplate{},
		planes: map[builderKey]*planesTemplate{},
	}
}

func (b *TemplateBuilder) totalTmpl(p Pattern, force string) *lineTemplate {
	k := builderKey{p: p, dim: totalDim, force: force}
	t, ok := b.lines[k]
	if !ok {
		t = buildLineTemplate(b.e, b.m, p, totalLine(b.m, 0), force, "")
		b.lines[k] = t
	}
	return t
}

func (b *TemplateBuilder) dimTmpl(p Pattern, dim int, force string) *lineTemplate {
	k := builderKey{p: p, dim: dim, force: force}
	t, ok := b.lines[k]
	if !ok {
		t = buildLineTemplate(b.e, b.m, p, dimLines(b.m, dim), force, axisScope(dim))
		b.lines[k] = t
	}
	return t
}

func (b *TemplateBuilder) planesTmpl(p Pattern, force string) *planesTemplate {
	k := builderKey{p: p, dim: totalDim, force: force}
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
// back to the total selection rooted at rank 0).
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
