package collective

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/machine"
)

// templateMeshes are the geometries the equivalence tests sweep:
// square, skewed both ways, non-power-of-two, and degenerate.
var templateMeshes = [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {2, 16}, {16, 2}, {64, 2}, {2, 64}, {3, 5}, {1, 8}}

// templateBytes cross payloads from below the chain segment sizes to
// scatter-allgather territory.
var templateBytes = []int64{1, 3, 16, 64, 1024, 65536, 1 << 20, 1 << 24}

// templateForces cross free selection, pins to single- and
// multi-variant algorithms, a total-only pin (which partial
// collectives must ignore), and a non-mesh name (free fallback).
var templateForces = []string{"", "flat", "chain", "dim-tree", "direct"}

// The reference selector below is the oracle the compiled selection
// is checked against. It shares only the shape emitters with the
// template tier: every candidate is materialized (refRounds, then
// reverseRounds for reductions) and priced by MeshCost — Mesh2D.Time
// round by round — and the phases of a plane composition compose by
// concatenating their rounds.

// refRounds materializes a streamed shape at the payload, expanding
// every repeated round into its own copies.
func refRounds(v shapeVariant, bytes int64) []Round {
	var rounds []Round
	v.emit(nil, func(sr shapeRound, rep int) {
		for k := 0; k < rep; k++ {
			r := make(Round, 0, len(sr))
			for _, sm := range sr {
				r = append(r, machine.Message{Src: sm.src, Dst: sm.dst, Bytes: sm.coef * ((bytes + sm.div - 1) / sm.div)})
			}
			rounds = append(rounds, r)
		}
	})
	return rounds
}

// refOrient turns broadcast-orientation rounds into the pattern's
// execution order.
func refOrient(p Pattern, rounds []Round) []Round {
	if p == Reduction {
		return reverseRounds(rounds)
	}
	return rounds
}

// refVariant materializes an algorithm's schedule at the payload: its
// only variant, or the cheapest applicable one by broadcast MeshCost,
// earlier variants winning ties. ok is false when none applies.
func refVariant(m *machine.Mesh2D, vs []shapeVariant, bytes int64) (best []Round, ok bool) {
	if len(vs) == 1 {
		return refRounds(vs[0], bytes), true
	}
	bestCost := 0.0
	for _, v := range vs {
		if v.minBytes > 0 && bytes < v.minBytes {
			continue
		}
		r := refRounds(v, bytes)
		if c := MeshCost(m, r); !ok || c < bestCost {
			best, bestCost, ok = r, c, true
		}
	}
	return best, ok
}

// refLines selects over one line set (scope "" admits the total-only
// algorithms) and returns the winner's broadcast-orientation rounds
// for composition. A force naming nothing applicable selects freely.
func refLines(m *machine.Mesh2D, p Pattern, ls [][]int, bytes int64, force, scope string) (Choice, []Round) {
	best := Choice{Pattern: p, Cost: -1}
	var bestRounds []Round
	for _, a := range meshAlgos {
		if (force != "" && a.name != force) || (a.totalOnly && scope != "") {
			continue
		}
		rounds, ok := refVariant(m, a.shape(m, ls), bytes)
		if !ok {
			continue
		}
		if cost := MeshCost(m, refOrient(p, rounds)); best.Cost < 0 || cost < best.Cost {
			best = Choice{Pattern: p, Algorithm: a.name, Scope: scope, Cost: cost, Rounds: len(rounds)}
			bestRounds = rounds
		}
	}
	if best.Cost < 0 {
		return refLines(m, p, ls, bytes, "", scope)
	}
	return best, bestRounds
}

// refPlanes selects the two-phase composition over a (valid) plane
// set: per dimension order, each phase's winner, composed by
// concatenation and priced as one schedule.
func refPlanes(m *machine.Mesh2D, p Pattern, planes []Plane, bytes int64, force string) Choice {
	best := Choice{Pattern: p, Cost: -1}
	for _, dimFirst := range []int{0, 1} {
		scope := planeScope(dimFirst)
		ls1, ls2 := planePhaseLines(m, planes, dimFirst)
		ch1, r1 := refLines(m, p, ls1, bytes, force, scope)
		ch2, r2 := refLines(m, p, ls2, bytes, force, scope)
		rounds := append(append([]Round{}, r1...), r2...)
		cand := Choice{Pattern: p, Algorithm: planeAlgoName(ch1.Algorithm, ch2.Algorithm),
			Scope: scope, Cost: MeshCost(m, refOrient(p, rounds)), Rounds: len(rounds)}
		if best.Cost < 0 || cand.Cost < best.Cost {
			best = cand
		}
	}
	return best
}

// refMacro is the macro rule: the partial schedule wins unless the
// machine-spanning total is strictly cheaper.
func refMacro(total, part Choice) Choice {
	if part.Cost <= total.Cost {
		return part
	}
	return total
}

func requireSameChoice(t *testing.T, ctxt string, want, got Choice) {
	t.Helper()
	if want != got {
		t.Fatalf("%s:\n  reference: %+v\n  got:       %+v", ctxt, want, got)
	}
}

// TestMeshTemplateMatchesSelect checks every selection entry point —
// the one-shot Select* calls and the templates of one shared
// TemplateBuilder, evaluated at every payload — against the reference
// selector, bit for bit (algorithm, scope, rounds, and cost down to
// the last float bit), across meshes, patterns, dims, payloads and
// force pins.
func TestMeshTemplateMatchesSelect(t *testing.T) {
	for _, sh := range templateMeshes {
		m := machine.DefaultMesh(sh[0], sh[1])
		lastRoot := m.Procs() - 1
		// halves splits the mesh into two planes along x, when it can.
		var halves []Plane
		if m.P >= 2 {
			halves = []Plane{{X0: 0, Y0: 0, W: m.P / 2, H: m.Q}, {X0: m.P / 2, Y0: 0, W: m.P - m.P/2, H: m.Q}}
		}
		for _, p := range []Pattern{Broadcast, Reduction} {
			for _, force := range templateForces {
				b := NewTemplateBuilder(m)
				tmpl := map[string]*MeshTemplate{
					"total": b.Total(p, force), "dim0": b.Dim(p, 0, force), "dim1": b.Dim(p, 1, force),
					"dim3": b.Dim(p, 3, force), "macro[]": b.Macro(p, nil, force),
					"macro[0]": b.Macro(p, []int{0}, force), "macro[1]": b.Macro(p, []int{1}, force),
					"macro[2]": b.Macro(p, []int{2}, force), "macro[0 1]": b.Macro(p, []int{0, 1}, force),
				}
				for _, bytes := range templateBytes {
					ctxt := func(mode string) string {
						return fmt.Sprintf("%dx%d %s force=%q %s bytes=%d", sh[0], sh[1], p, force, mode, bytes)
					}
					total, _ := refLines(m, p, totalLine(m, 0), bytes, force, "")
					dim0, _ := refLines(m, p, dimLines(m, 0), bytes, force, axisScope(0))
					dim1, _ := refLines(m, p, dimLines(m, 1), bytes, force, axisScope(1))
					plane := refPlanes(m, p, []Plane{FullPlane(m)}, bytes, force)
					want := map[string]Choice{
						"total": total, "dim0": dim0, "dim1": dim1, "dim3": total,
						"macro[]": total, "macro[0]": refMacro(total, dim0), "macro[1]": refMacro(total, dim1),
						"macro[2]": total, "macro[0 1]": refMacro(total, plane),
					}
					requireSameChoice(t, ctxt("SelectMesh"), total, SelectMesh(m, p, 0, bytes, force))
					rooted, _ := refLines(m, p, totalLine(m, lastRoot), bytes, force, "")
					requireSameChoice(t, ctxt(fmt.Sprintf("SelectMesh root=%d", lastRoot)), rooted, SelectMesh(m, p, lastRoot, bytes, force))
					for _, c := range []struct {
						dim  int
						want Choice
					}{{0, dim0}, {1, dim1}, {3, total}, {-1, total}} {
						requireSameChoice(t, ctxt(fmt.Sprintf("SelectMeshDim(%d)", c.dim)), c.want, SelectMeshDim(m, p, c.dim, bytes, force))
					}
					requireSameChoice(t, ctxt("SelectMeshPlanes full"), plane, SelectMeshPlanes(m, p, []Plane{FullPlane(m)}, bytes, force))
					if halves != nil {
						requireSameChoice(t, ctxt("SelectMeshPlanes halves"), refPlanes(m, p, halves, bytes, force),
							SelectMeshPlanes(m, p, halves, bytes, force))
					}
					for _, dims := range [][]int{nil, {0}, {1}, {2}, {0, 1}} {
						mode := fmt.Sprintf("macro%v", dims)
						requireSameChoice(t, ctxt("SelectMeshMacro "+mode), want[mode], SelectMeshMacro(m, p, dims, bytes, force))
					}
					for mode, tt := range tmpl {
						requireSameChoice(t, ctxt("template "+mode), want[mode], tt.Eval(m, bytes))
					}
				}
			}
		}
	}
}

// TestMeshTemplateAllForces pins every mesh algorithm on one square
// and one skewed mesh, so the force filter and the chain's variant
// machinery compile correctly under pinning.
func TestMeshTemplateAllForces(t *testing.T) {
	for _, sh := range [][2]int{{8, 8}, {16, 2}} {
		m := machine.DefaultMesh(sh[0], sh[1])
		for _, force := range MeshAlgorithms() {
			for _, p := range []Pattern{Broadcast, Reduction} {
				for _, b := range []int64{1, 64, 4096, 1 << 22} {
					total, _ := refLines(m, p, totalLine(m, 0), b, force, "")
					dim1, _ := refLines(m, p, dimLines(m, 1), b, force, axisScope(1))
					macro := refMacro(total, refPlanes(m, p, []Plane{FullPlane(m)}, b, force))
					requireSameChoice(t, fmt.Sprintf("%dx%d force=%s %s macro bytes=%d", sh[0], sh[1], force, p, b),
						macro, SelectMeshMacro(m, p, []int{0, 1}, b, force))
					requireSameChoice(t, fmt.Sprintf("%dx%d force=%s %s dim1 bytes=%d", sh[0], sh[1], force, p, b),
						dim1, SelectMeshDim(m, p, 1, b, force))
				}
			}
		}
	}
}

// TestMeshTemplateOutOfRangeDim: a virtual axis with no mesh extent
// selects the total collective rooted at rank 0.
func TestMeshTemplateOutOfRangeDim(t *testing.T) {
	m := machine.DefaultMesh(4, 4)
	want, _ := refLines(m, Broadcast, totalLine(m, 0), 4096, "", "")
	requireSameChoice(t, "template dim3", want, NewTemplateBuilder(m).Dim(Broadcast, 3, "").Eval(m, 4096))
	requireSameChoice(t, "SelectMeshDim(3)", want, SelectMeshDim(m, Broadcast, 3, 4096, ""))
}

// TestSelectMeshPlanesInvalid: an empty plane set, or a plane that
// does not fit the mesh, selects nothing.
func TestSelectMeshPlanesInvalid(t *testing.T) {
	m := machine.DefaultMesh(4, 4)
	for _, planes := range [][]Plane{nil, {{X0: 2, Y0: 0, W: 3, H: 4}}, {FullPlane(m), {X0: 0, Y0: 0, W: 0, H: 1}}} {
		if ch := SelectMeshPlanes(m, Reduction, planes, 64, ""); ch != (Choice{Pattern: Reduction, Cost: -1}) {
			t.Fatalf("planes %+v: got %+v, want Cost -1", planes, ch)
		}
	}
}

// TestMeshTemplateEvalAllocs is the warm-evaluator alloc-regression
// guard: a compiled template must price any payload without
// allocating.
func TestMeshTemplateEvalAllocs(t *testing.T) {
	m := machine.DefaultMesh(16, 16)
	tmpl := NewTemplateBuilder(m).Macro(Reduction, []int{0, 1}, "")
	bytesIn := templateBytes
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		tmpl.Eval(m, bytesIn[i%len(bytesIn)])
		i++
	}); n > 0 {
		t.Fatalf("MeshTemplate.Eval allocates %.1f times per run, want 0", n)
	}
}

// TestMeshTemplateRingCompilesOnce: the scatter-allgather ring's n−1
// identical steps compile to one priced round with a repeat count,
// while the template still reports every round.
func TestMeshTemplateRingCompilesOnce(t *testing.T) {
	m := machine.DefaultMesh(16, 16)
	for _, p := range []Pattern{Broadcast, Reduction} {
		lt := buildLineTemplate(newEvaluator(m), m, p, totalLine(m, 0), "scatter-allgather", "")
		v := &lt.algos[0].variants[0]
		ring := v.main[len(v.main)-1]
		if p == Reduction {
			ring = v.main[0]
		}
		if ring.rep != 255 {
			t.Fatalf("%s: ring step compiled with rep %d, want 255", p, ring.rep)
		}
		reps := 0
		for _, r := range v.main {
			reps += r.rep
		}
		// ⌈log₂ 256⌉ = 8 scatter rounds, then the 255 ring steps.
		if v.nrounds != 8+255 || reps != v.nrounds {
			t.Fatalf("%s: nrounds %d, repeats sum to %d; want 263", p, v.nrounds, reps)
		}
		want, _ := refLines(m, p, totalLine(m, 0), 1<<20, "scatter-allgather", "")
		got, _, _ := lt.evalWinner(m, 1<<20)
		requireSameChoice(t, fmt.Sprintf("%s scatter-allgather", p), want, got)
	}
}

// compileAll compiles, with a fresh builder, every template structure
// of the mesh: the total line, both per-dimension line sets and the
// full-plane composition, for broadcasts and reductions.
func compileAll(m *machine.Mesh2D) {
	b := NewTemplateBuilder(m)
	for _, p := range []Pattern{Broadcast, Reduction} {
		b.Total(p, "")
		b.Dim(p, 0, "")
		b.Dim(p, 1, "")
		b.Macro(p, []int{0, 1}, "")
	}
}

// TestMeshTemplateCompileAllocs gates compilation's allocation count:
// rounds compile through reused scratch, a repeated round allocates
// nothing and a recurring partition is stored once per variant, so
// only each distinct partition, the priced-round lists and the
// template skeleton allocate. The bounds sit about 7% above the
// measured counts (1833 and 1765; rendering the plane algorithm names
// per template took 1957 and 1889, packing every chain round and
// copying every new partition 3356 and 3260, storing every round
// before packing it 21583 and 19645).
func TestMeshTemplateCompileAllocs(t *testing.T) {
	for _, c := range []struct {
		p, q int
		max  float64
	}{{16, 16, 1960}, {64, 2, 1890}} {
		m := machine.DefaultMesh(c.p, c.q)
		if n := testing.AllocsPerRun(5, func() { compileAll(m) }); n > c.max {
			t.Fatalf("compiling every mesh%dx%d template allocates %.0f times, want ≤ %.0f", c.p, c.q, n, c.max)
		}
	}
}

// TestMeshTemplateCompileAllocsBytes gates the bytes compilation
// allocates, which the count above does not see: a chain round
// packed or a partition copied where it need not be shows here first.
// The bounds sit about 10% above the measured 258 361 and 219 689 B
// per compileAll (packing every chain round and copying every new
// partition took 911 681 and 544 950 B).
func TestMeshTemplateCompileAllocsBytes(t *testing.T) {
	const runs = 5
	for _, c := range []struct {
		p, q int
		max  uint64
	}{{16, 16, 284_000}, {64, 2, 242_000}} {
		m := machine.DefaultMesh(c.p, c.q)
		compileAll(m)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			compileAll(m)
		}
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > c.max {
			t.Fatalf("compiling every mesh%dx%d template allocates %d B, want ≤ %d", c.p, c.q, n, c.max)
		}
	}
}

// TestSelectMeshAllocsScaling: a cold selection's memory follows the
// schedules' distinct structure, so quadrupling the node count
// (mesh32x32 to mesh64x64) may not blow up its allocation.
func TestSelectMeshAllocsScaling(t *testing.T) {
	allocated := func(n int) uint64 {
		m := machine.DefaultMesh(n, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		SelectMesh(m, Broadcast, 0, 4096, "")
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, big := allocated(32), allocated(64)
	if big > 6*small {
		t.Fatalf("cold SelectMesh allocates %d B on mesh64x64, %.1f× the %d B on mesh32x32; want ≤ 6×",
			big, float64(big)/float64(small), small)
	}
}

// chainLineSets are the line sets the chain shortcut is checked on:
// every set a template compiles (the total line at root 0 and at the
// last rank, both per-dimension sets, and the phase lines of the
// full-plane and halves compositions, both dimension orders) and two
// hand-built sets whose hops share a directed link — a line that
// doubles back over itself, and a line run twice — which must take the
// packing path.
func chainLineSets(m *machine.Mesh2D) (real, shared map[string][][]int) {
	real = map[string][][]int{
		"total": totalLine(m, 0), "total@last": totalLine(m, m.Procs()-1),
		"dim0": dimLines(m, 0), "dim1": dimLines(m, 1),
	}
	planeSets := map[string][]Plane{"full": {FullPlane(m)}}
	if m.P >= 2 {
		planeSets["halves"] = []Plane{{X0: 0, Y0: 0, W: m.P / 2, H: m.Q}, {X0: m.P / 2, Y0: 0, W: m.P - m.P/2, H: m.Q}}
	}
	for name, planes := range planeSets {
		for _, dimFirst := range []int{0, 1} {
			ls1, ls2 := planePhaseLines(m, planes, dimFirst)
			real[fmt.Sprintf("%s %s phase1", name, planeScope(dimFirst))] = ls1
			real[fmt.Sprintf("%s %s phase2", name, planeScope(dimFirst))] = ls2
		}
	}
	shared = map[string][][]int{}
	if m.Q >= 4 {
		// 0→2 and 1→3 both cross the link from (0,1) to (0,2), and
		// their mirrors the link back.
		shared["doubles back"] = [][]int{{0, 2, 1, 3}}
	}
	if m.Procs() >= 2 {
		row := totalLine(m, 0)[0]
		shared["run twice"] = [][]int{row, row}
	}
	return real, shared
}

// samePriced reports whether two priced round sequences hold equal
// partitions with equal repeat counts, in order.
func samePriced(a, b []pricedRound) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].rep != b[i].rep || !sameGroups(a[i].groups, b[i].groups) {
			return false
		}
	}
	return true
}

// TestChainShortcutMatchesPacking checks the chain rounds compiled
// from a link-disjoint hop set against the same variants with the
// chain marker stripped, which stream every round through the packer:
// partitions, repeat counts and round counts, for every chain
// segmentation, both orientations (a reduction also compiles the
// broadcast one) and every templateMeshes geometry. Every line set a
// template compiles must take the shortcut, and the hand-built sets
// whose hops share a link must not; on a total line, every variant's
// chain rounds must store at most two distinct partitions.
func TestChainShortcutMatchesPacking(t *testing.T) {
	for _, sh := range templateMeshes {
		m := machine.DefaultMesh(sh[0], sh[1])
		e := newEvaluator(m)
		real, shared := chainLineSets(m)
		check := func(name string, ls [][]int, wantShortcut bool) {
			if maxLineLen(ls) >= 2 {
				for _, mirror := range []bool{false, true} {
					if got := e.chainHops(ls, mirror); got != wantShortcut {
						t.Fatalf("%dx%d %s mirror=%v: link-disjoint hops %v, want %v", sh[0], sh[1], name, mirror, got, wantShortcut)
					}
				}
			}
			for _, p := range []Pattern{Broadcast, Reduction} {
				vs := shapeChain(m, ls)
				packed := make([]shapeVariant, len(vs))
				for i, v := range vs {
					v.segs, v.lines = 0, nil
					packed[i] = v
				}
				got := e.compileAlgo("chain", vs, p)
				want := e.compileAlgo("chain", packed, p)
				for i := range want.variants {
					g, w := &got.variants[i], &want.variants[i]
					ctxt := fmt.Sprintf("%dx%d %s %s variant %d", sh[0], sh[1], name, p, i)
					if g.nrounds != w.nrounds || g.minBytes != w.minBytes {
						t.Fatalf("%s: nrounds %d minBytes %d, packing gives %d and %d", ctxt, g.nrounds, g.minBytes, w.nrounds, w.minBytes)
					}
					if !samePriced(g.main, w.main) || !samePriced(g.bcast, w.bcast) {
						t.Fatalf("%s: priced rounds differ from packing every round:\n  got:  %+v / %+v\n  want: %+v / %+v", ctxt, g.main, g.bcast, w.main, w.bcast)
					}
					if name == "total" && m.P >= 2 && m.Q >= 2 {
						distinct := map[*contGroup]bool{}
						for _, r := range append(append([]pricedRound{}, g.main...), g.bcast...) {
							distinct[&r.groups[0]] = true
						}
						if len(distinct) > 2 {
							t.Fatalf("%s: %d distinct partitions stored, want ≤ 2", ctxt, len(distinct))
						}
					}
				}
			}
		}
		for name, ls := range real {
			check(name, ls, true)
		}
		for name, ls := range shared {
			check(name, ls, false)
		}
	}
}

// linkLoadBounds bounds a round's time from XY paths alone, sharing
// nothing with the packer: messages that share a directed link land in
// distinct contention groups, and a group costs at least each of its
// messages' own cost (what it would cost alone), so the round costs at
// least the busiest link's sum of own costs, and at most the sum over
// all non-local messages. load is per-link scratch of m.P·m.Q·4 entries.
func linkLoadBounds(m *machine.Mesh2D, r Round, load []float64) (lo, hi float64) {
	clear(load)
	dirIdx := func(d int) (int, int) {
		if d < 0 {
			return -1, 0
		}
		return 1, 1
	}
	for _, msg := range r {
		if msg.Src == msg.Dst {
			continue
		}
		x1, y1 := msg.Src/m.Q, msg.Src%m.Q
		x2, y2 := msg.Dst/m.Q, msg.Dst%m.Q
		own := m.Startup + float64(msg.Bytes)*m.PerByte + float64(max(x2-x1, x1-x2)+max(y2-y1, y1-y2))*m.HopLatency
		hi += own
		dx, ix := dirIdx(x2 - x1)
		for x := x1; x != x2; x += dx {
			load[((x*m.Q+y1)*2+0)*2+ix] += own
		}
		dy, iy := dirIdx(y2 - y1)
		for y := y1; y != y2; y += dy {
			load[((x2*m.Q+y)*2+1)*2+iy] += own
		}
	}
	for _, l := range load {
		lo = max(lo, l)
	}
	return lo, hi
}

// TestMeshTemplateLinkLoadBounds checks every compiled variant of every
// algorithm, over every line set a template compiles on
// TestMeshTemplateMatchesSelect's grid, against link-load bounds: at
// every payload, each priced round (repeats expanded) and the folded
// price of the whole schedule lie between the bounds of the
// instantiated rounds. The tolerance is relative: the bounds add in
// another order than foldRounds does.
func TestMeshTemplateLinkLoadBounds(t *testing.T) {
	const tol = 1e-9
	within := func(v, lo, hi float64) bool { return v >= lo*(1-tol) && v <= hi*(1+tol) }
	// orient is one compiled orientation of a variant: its priced
	// rounds in the execution order of pattern p.
	type orient struct {
		p   Pattern
		seq []pricedRound
	}
	for _, sh := range templateMeshes {
		m := machine.DefaultMesh(sh[0], sh[1])
		e := newEvaluator(m)
		load := make([]float64, m.P*m.Q*4)
		real, _ := chainLineSets(m)
		for name, ls := range real {
			// A total line admits the total-only algorithms; any other
			// scope excludes them.
			scope := "partial"
			if name == "total" || name == "total@last" {
				scope = ""
			}
			for _, p := range []Pattern{Broadcast, Reduction} {
				lt := buildLineTemplate(e, m, p, ls, "", scope)
				for ai, a := range lt.algos {
					var vs []shapeVariant
					for _, ma := range meshAlgos {
						if ma.name == a.name {
							vs = ma.shape(m, ls)
						}
					}
					for vi := range a.variants {
						v := &a.variants[vi]
						orients := []orient{{p, v.main}}
						if v.bcast != nil {
							orients = append(orients, orient{Broadcast, v.bcast})
						}
						for _, o := range orients {
							for _, bytes := range templateBytes {
								ctxt := fmt.Sprintf("%dx%d %s %s %s variant %d (%s) bytes=%d", sh[0], sh[1], name, p, lt.algos[ai].name, vi, o.p, bytes)
								rounds := refOrient(o.p, instantiate(vs[vi], bytes))
								if len(rounds) != v.nrounds {
									t.Fatalf("%s: %d rounds instantiated, template counts %d", ctxt, len(rounds), v.nrounds)
								}
								var sumLo, sumHi float64
								ri := 0
								for _, pr := range o.seq {
									cost := foldRounds([]pricedRound{{groups: pr.groups, rep: 1}}, m, bytes, 0)
									for k := 0; k < pr.rep; k++ {
										lo, hi := linkLoadBounds(m, rounds[ri], load)
										if !within(cost, lo, hi) {
											t.Fatalf("%s: round %d prices %v, outside its link-load bounds [%v, %v]", ctxt, ri, cost, lo, hi)
										}
										sumLo += lo
										sumHi += hi
										ri++
									}
								}
								if cost := foldRounds(o.seq, m, bytes, 0); !within(cost, sumLo, sumHi) {
									t.Fatalf("%s: template prices %v, outside the link-load bounds [%v, %v]", ctxt, cost, sumLo, sumHi)
								}
							}
						}
					}
				}
			}
		}
	}
}
