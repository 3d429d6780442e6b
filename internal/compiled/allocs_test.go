package compiled

import (
	"testing"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/intmat"
	"repro/internal/scenarios"
)

// allocsArtifact holds every plan kind the cost dispatch prices: macro
// communications in each mesh scheduling mode (total, per line, per
// plane), a reduction, decomposed plans with 2×2 factors and with a
// unit-shift stand-in, and general plans with and without a usable
// data-flow matrix.
func allocsArtifact() *Artifact {
	l := intmat.New(2, 2, 1, 0, 3, 1)
	u := intmat.New(2, 2, 1, 2, 0, 1)
	return New("allocs", []PlanShape{
		{Class: core.Local},
		{Class: core.MacroComm, Vectorizable: true},
		{Class: core.MacroComm, MacroDims: []int{0}},
		{Class: core.MacroComm, MacroDims: []int{0, 1}, MacroReduction: true},
		{Class: core.MacroComm, MacroDims: []int{0, 2}},
		{Class: core.Decomposed, Factors: []*intmat.Mat{l, u}, Vectorizable: true},
		{Class: core.Decomposed},
		{Class: core.General, Dataflow: intmat.New(2, 2, 0, 1, 1, 0)},
		{Class: core.General},
	}, "")
}

// TestEvalAllocs gates the numeric phase: once the pricer holds the
// templates a point needs, Artifact.Eval allocates at most its
// Collectives string, on the mesh and on the fat tree.
func TestEvalAllocs(t *testing.T) {
	art := allocsArtifact()
	dist := distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}
	pr := NewPricer()
	for _, spec := range []scenarios.MachineSpec{
		{Kind: scenarios.Mesh, P: 8, Q: 4},
		{Kind: scenarios.Mesh, P: 4, Q: 4, Algo: "flat"},
		{Kind: scenarios.FatTree, P: 64},
	} {
		pt := art.Eval(pr, spec, dist, 16, 256) // warm the templates
		if pt.Classes[core.MacroComm] != 4 || pt.Classes[core.Decomposed] != 2 || pt.Classes[core.General] != 2 {
			t.Fatalf("%v: classes %v", spec, pt.Classes)
		}
		if pt.Collectives == "" {
			t.Fatalf("%v: no collectives recorded", spec)
		}
		allocs := testing.AllocsPerRun(100, func() {
			pt = art.Eval(pr, spec, dist, 16, 256)
		})
		if allocs > 1 {
			t.Fatalf("%v: warm Eval does %v allocs/op, want at most 1 (the Collectives string)", spec, allocs)
		}
	}
}

// TestSweepAllocs gates a warm sweep: it allocates the sorted payloads
// and the row slice, and one Collectives string per row that does not
// repeat the previous row's summary — nothing per plan or per point.
func TestSweepAllocs(t *testing.T) {
	art := allocsArtifact()
	dist := distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}
	g, err := ParseGrid("mesh{4..16}x{2..8}:bytes=1k..1M")
	if err != nil {
		t.Fatal(err)
	}
	pr := NewPricer()
	rows := g.Sweep(art, pr, dist, 16) // warm the templates
	fresh := 0
	for i, row := range rows {
		if i == 0 || row.Machine != rows[i-1].Machine || row.Switched {
			fresh++
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		g.Sweep(art, pr, dist, 16)
	})
	if want := float64(fresh + 2); allocs > want {
		t.Fatalf("warm sweep of %d rows does %v allocs, want at most %v (%d fresh summaries + payloads + rows)",
			len(rows), allocs, want, fresh)
	}
}
