package compiled

import (
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/machine"
	"repro/internal/scenarios"
)

// Point is the evaluation of one artifact at one machine point: the
// same aggregate the engine reports per scenario (class counts, model
// time, vectorizable count, collective summary), minus the run-side
// bookkeeping.
type Point struct {
	// Classes counts the nest's communications per core.Class.
	Classes [4]int
	// ModelTime is the modeled execution time (µs) of one sweep of all
	// residual communications.
	ModelTime float64
	// Vectorizable counts plans satisfying the Section 4.5 condition.
	Vectorizable int
	// Collectives is the deterministic collective summary, rendered
	// exactly as engine results render it.
	Collectives string
}

// Eval prices the artifact's plans at one machine point through the
// cost dispatch the engine runs (EvalPlans), so the Point is
// bit-identical to optimizing the corresponding scenario uncompiled.
// An errored artifact returns the zero Point.
func (a *Artifact) Eval(pr *Pricer, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, elemBytes int64) Point {
	if a.Err != "" {
		return Point{}
	}
	return EvalPlans(a.Plans, pr, spec, dist, n, elemBytes)
}

// EvalPlans prices plans at one machine point — spec, an n×n virtual
// grid under dist, elemBytes per element — and aggregates them as the
// engine reports a scenario. It is the program's one cost dispatch:
// engine sessions and compiled artifacts both price through it.
func EvalPlans(plans []PlanShape, pr *Pricer, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, elemBytes int64) Point {
	tg := newTarget(spec)
	return tg.eval(plans, pr, dist, n, elemBytes, "")
}

// target is the machine instance of one spec, built once and priced
// at any number of points. It lives on its caller's stack: pricing
// never retains the mesh, so a warm point allocates nothing but its
// Collectives string.
type target struct {
	spec scenarios.MachineSpec
	mesh machine.Mesh2D
	ft   machine.FatTree
}

func newTarget(spec scenarios.MachineSpec) target {
	tg := target{spec: spec}
	if spec.Kind == scenarios.Mesh {
		tg.mesh = *machine.DefaultMesh(spec.P, spec.Q)
	} else {
		tg.ft = *machine.DefaultFatTree(spec.P)
	}
	return tg
}

// eval prices plans at one point of the target. When the point's
// collective summary equals prev, prev itself is returned as the
// summary and no string is built.
func (tg *target) eval(plans []PlanShape, pr *Pricer, dist distrib.Dist2D, n int, elemBytes int64, prev string) Point {
	var pt Point
	var cc choiceCounts
	for i := range plans {
		pl := &plans[i]
		pt.Classes[pl.Class]++
		if pl.Vectorizable {
			pt.Vectorizable++
		}
		pt.ModelTime += tg.planTime(pl, pr, dist, n, elemBytes, &cc)
	}
	pt.Collectives = cc.render(prev)
	return pt
}

// planTime costs one communication plan on the machine model, in
// model-µs, and counts the collective algorithms the cost-driven
// selector chose for it into cc (none for plans without a collective
// operation). A local plan costs nothing.
//
// Fat tree (CM-5-like): macro-communications go through the
// collective selector, which keeps the hardware combining network as
// a fixed-cost algorithm next to software trees over the data
// network. The per-processor payload is n elements of elemBytes; a
// vectorizable plan (Section 4.5) moves it in one operation, a
// non-vectorizable one pays n element-wise operations.
//
// Mesh (Paragon-like): macro-communications take the cheapest
// schedule the selector builds on the concrete mesh (the pricer's
// compiled templates): an axis-parallel p=1 macro runs along its grid
// dimension (concurrent per-line trees), a p ≥ 2 one decomposes into
// per-plane two-phase schedules that compete with the
// machine-spanning execution, and a total one spans the machine.
// Decomposed and general plans are simulated message by message
// through the pricer's pattern templates (Pricer.patternTime).
//
// The machine spec may pin the selection to one named algorithm (the
// "mesh8x8:flat" spec grammar) for ablations.
func (tg *target) planTime(pl *PlanShape, pr *Pricer, dist distrib.Dist2D, n int, eb int64, cc *choiceCounts) float64 {
	switch {
	case pl.Class == core.Local:
		return 0
	case tg.spec.Kind == scenarios.Mesh:
		return tg.meshPlanTime(pl, pr, dist, n, eb, cc)
	default:
		return tg.fatTreePlanTime(pl, n, eb, cc)
	}
}

// physMacroDims appends to dst the projection of a macro's virtual
// grid axes onto the 2-D mesh: axes ≥ 2 have no physical extent in
// the mesh model and are dropped. A one-axis (p=1) macro is scheduled
// per line; multi-axis (p ≥ 2) macros go per-plane — but if every
// axis projects away, nothing pins the macro to a sub-grid and it is
// scheduled machine-spanning.
func physMacroDims(dst, vdims []int) []int {
	for _, d := range vdims {
		if d == 0 || d == 1 {
			dst = append(dst, d)
		}
	}
	return dst
}

func macroPattern(pl *PlanShape) collective.Pattern {
	if pl.MacroReduction {
		return collective.Reduction
	}
	return collective.Broadcast
}

func (tg *target) meshPlanTime(pl *PlanShape, pr *Pricer, dist distrib.Dist2D, n int, eb int64, cc *choiceCounts) float64 {
	if pl.Class != core.MacroComm {
		return pr.patternTime(&tg.mesh, dist, pl, n, eb, tg.spec.Algo, cc)
	}
	ch := selectMeshMacro(pr, &tg.mesh, macroPattern(pl), pl.MacroDims, eb*int64(n), tg.spec.Algo)
	cc.add(ch, 1)
	return ch.Cost
}

// selectMeshMacro selects a mesh macro-communication over its virtual
// grid axes vdims: per line for a p=1 macro, per plane for a p ≥ 2
// one, machine-spanning when no axis has a physical extent.
func selectMeshMacro(pr *Pricer, m *machine.Mesh2D, pattern collective.Pattern, vdims []int, bytes int64, force string) collective.Choice {
	var buf [2]int
	dims := physMacroDims(buf[:0], vdims)
	switch {
	case len(vdims) == 1 && len(dims) == 1:
		return pr.SelectMeshDim(m, pattern, dims[0], bytes, force)
	case len(vdims) >= 2 && len(dims) >= 1:
		return pr.SelectMeshMacro(m, pattern, dims, bytes, force)
	default:
		return pr.SelectMesh(m, pattern, bytes, force)
	}
}

func (tg *target) fatTreePlanTime(pl *PlanShape, n int, eb int64, cc *choiceCounts) float64 {
	ft := &tg.ft
	switch pl.Class {
	case core.MacroComm:
		bytes := eb
		if pl.Vectorizable {
			bytes = eb * int64(n)
		}
		ch := collective.SelectFatTree(ft, macroPattern(pl), bytes, tg.spec.Algo)
		cc.add(ch, 1)
		if pl.Vectorizable {
			return ch.Cost
		}
		return float64(n) * ch.Cost
	case core.Decomposed:
		k := len(pl.Factors)
		if k == 0 {
			k = 1
		}
		one := func(bytes int64) float64 { return float64(k) * ft.Translation(bytes) }
		if pl.Vectorizable {
			return one(eb * int64(n))
		}
		return float64(n) * one(eb)
	default:
		if pl.Vectorizable {
			return ft.General(1, eb*int64(n))
		}
		return float64(n) * ft.General(1, eb)
	}
}
