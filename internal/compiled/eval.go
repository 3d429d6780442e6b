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
	return EvalPlans(a.Plans, pr, spec, dist, n, elemBytes, nil)
}

// Selector runs one collective selection of a plan: sel computes the
// choice, through the pricer (or cold, for a nil pricer). The
// selection is a pure function of the machine spec, p, dims and
// bytes, so a Selector may memoize on them; dims carries the macro's
// virtual grid axes where they decide the scheduling mode, nil
// otherwise. A nil Selector runs sel directly.
type Selector func(p collective.Pattern, dims []int, bytes int64, sel func() collective.Choice) collective.Choice

func (s Selector) run(p collective.Pattern, dims []int, bytes int64, sel func() collective.Choice) collective.Choice {
	if s == nil {
		return sel()
	}
	return s(p, dims, bytes, sel)
}

// EvalPlans prices plans at one machine point — spec, an n×n virtual
// grid under dist, elemBytes per element — and aggregates them as the
// engine reports a scenario. It is the program's one cost dispatch:
// engine sessions and compiled artifacts both price through it.
func EvalPlans(plans []PlanShape, pr *Pricer, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, elemBytes int64, sel Selector) Point {
	var pt Point
	counts := map[string]int{}
	for _, pl := range plans {
		pt.Classes[pl.Class]++
		if pl.Vectorizable {
			pt.Vectorizable++
		}
		t, choices := PlanTime(pl, pr, spec, dist, n, elemBytes, sel)
		pt.ModelTime += t
		for _, ch := range choices {
			counts[ch.String()]++
		}
	}
	pt.Collectives = formatCollectives(counts)
	return pt
}

// PlanTime costs one communication plan on the machine model, in
// model-µs, and reports which collective algorithms the cost-driven
// selector chose for it (none for plans without a collective
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
// through the pricer's pattern templates (Pricer.PatternTime).
//
// The machine spec may pin the selection to one named algorithm (the
// "mesh8x8:flat" spec grammar) for ablations.
func PlanTime(pl PlanShape, pr *Pricer, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, elemBytes int64, sel Selector) (float64, []collective.Choice) {
	switch {
	case pl.Class == core.Local:
		return 0, nil
	case spec.Kind == scenarios.Mesh:
		return meshShapeTime(pr, spec, dist, n, elemBytes, pl, sel)
	default:
		return fatTreeShapeTime(spec, n, elemBytes, pl, sel)
	}
}

// physMacroDims projects a macro's virtual grid axes onto the 2-D
// mesh: axes ≥ 2 have no physical extent in the mesh model and are
// dropped. A one-axis (p=1) macro is scheduled per line; multi-axis
// (p ≥ 2) macros go per-plane — but if every axis projects away,
// nothing pins the macro to a sub-grid and it is scheduled
// machine-spanning (nil).
func physMacroDims(vdims []int) []int {
	var dims []int
	for _, d := range vdims {
		if d == 0 || d == 1 {
			dims = append(dims, d)
		}
	}
	return dims
}

func meshShapeTime(pr *Pricer, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, eb int64, pl PlanShape, sel Selector) (float64, []collective.Choice) {
	m := machine.DefaultMesh(spec.P, spec.Q)
	force := spec.Algo
	switch pl.Class {
	case core.MacroComm:
		pattern := collective.Broadcast
		if pl.MacroReduction {
			pattern = collective.Reduction
		}
		bytes := eb * int64(n)
		dims := physMacroDims(pl.MacroDims)
		var ch collective.Choice
		// The virtual axes key the selection where they decide the
		// scheduling mode: a p=1 axis-0 macro and a p≥2 {0,2} macro
		// both project to physical axis 0 but select differently.
		switch {
		case len(pl.MacroDims) == 1 && len(dims) == 1:
			ch = sel.run(pattern, pl.MacroDims, bytes, func() collective.Choice {
				return pr.SelectMeshDim(m, pattern, dims[0], bytes, force)
			})
		case len(pl.MacroDims) >= 2 && len(dims) >= 1:
			ch = sel.run(pattern, pl.MacroDims, bytes, func() collective.Choice {
				return pr.SelectMeshMacro(m, pattern, dims, bytes, force)
			})
		default:
			ch = sel.run(pattern, nil, bytes, func() collective.Choice {
				return pr.SelectMesh(m, pattern, bytes, force)
			})
		}
		return ch.Cost, []collective.Choice{ch}
	default:
		return pr.PatternTime(m, dist, pl, n, eb, force)
	}
}

func fatTreeShapeTime(spec scenarios.MachineSpec, n int, eb int64, pl PlanShape, sel Selector) (float64, []collective.Choice) {
	ft := machine.DefaultFatTree(spec.P)
	switch pl.Class {
	case core.MacroComm:
		pattern := collective.Broadcast
		if pl.MacroReduction {
			pattern = collective.Reduction
		}
		bytes := eb
		if pl.Vectorizable {
			bytes = eb * int64(n)
		}
		ch := sel.run(pattern, nil, bytes, func() collective.Choice {
			return collective.SelectFatTree(ft, pattern, bytes, spec.Algo)
		})
		if pl.Vectorizable {
			return ch.Cost, []collective.Choice{ch}
		}
		return float64(n) * ch.Cost, []collective.Choice{ch}
	case core.Decomposed:
		k := len(pl.Factors)
		if k == 0 {
			k = 1
		}
		one := func(bytes int64) float64 { return float64(k) * ft.Translation(bytes) }
		if pl.Vectorizable {
			return one(eb * int64(n)), nil
		}
		return float64(n) * one(eb), nil
	default:
		if pl.Vectorizable {
			return ft.General(1, eb*int64(n)), nil
		}
		return float64(n) * ft.General(1, eb), nil
	}
}
