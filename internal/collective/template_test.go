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
	v.emit(func(sr shapeRound, rep int) {
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
// rounds compile through reused scratch, and a repeated round
// allocates nothing, so only each distinct priced round and the
// template skeleton allocate. The bounds sit about 7% above the
// measured counts (3355 and 3260; storing every round before packing
// it took 21583 and 19645).
func TestMeshTemplateCompileAllocs(t *testing.T) {
	for _, c := range []struct {
		p, q int
		max  float64
	}{{16, 16, 3600}, {64, 2, 3500}} {
		m := machine.DefaultMesh(c.p, c.q)
		if n := testing.AllocsPerRun(5, func() { compileAll(m) }); n > c.max {
			t.Fatalf("compiling every mesh%dx%d template allocates %.0f times, want ≤ %.0f", c.p, c.q, n, c.max)
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
