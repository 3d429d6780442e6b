// Benchmark harness: one benchmark (family) per table and figure of
// the paper's evaluation, plus ablations of the heuristic's design
// choices. Every benchmark that simulates a communication reports the
// *model* time in model-µs via ReportMetric (the quantity the paper
// tabulates) in addition to the usual wall-clock of running the
// simulation itself.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"

	"repro/internal/accessgraph"
	"repro/internal/affine"
	"repro/internal/alignment"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/intmat"
	"repro/internal/machine"
	"repro/internal/scenarios"
)

// --- Table 1: data movements on the CM-5-like machine ---

func benchTable1(b *testing.B, pick func(r, bc, tr, g float64) float64) {
	f := machine.DefaultFatTree(32)
	var t float64
	for i := 0; i < b.N; i++ {
		r, bc, tr, g := f.Table1(512)
		t = pick(r, bc, tr, g)
	}
	b.ReportMetric(t, "model-µs")
}

func BenchmarkTable1Reduction(b *testing.B) {
	benchTable1(b, func(r, _, _, _ float64) float64 { return r })
}

func BenchmarkTable1Broadcast(b *testing.B) {
	benchTable1(b, func(_, bc, _, _ float64) float64 { return bc })
}

func BenchmarkTable1Translation(b *testing.B) {
	benchTable1(b, func(_, _, tr, _ float64) float64 { return tr })
}

func BenchmarkTable1General(b *testing.B) {
	benchTable1(b, func(_, _, _, g float64) float64 { return g })
}

// --- Table 2: direct vs decomposed execution on the mesh ---

func BenchmarkTable2Direct(b *testing.B) {
	m := machine.DefaultMesh(8, 8)
	cyc := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}}
	T := intmat.New(2, 2, 1, 2, 3, 7)
	var t float64
	for i := 0; i < b.N; i++ {
		t = m.Time(machine.GeneralComm2D(m, cyc, T, nil, 64, 64, 64))
	}
	b.ReportMetric(t, "model-µs")
}

func BenchmarkTable2DecomposedLU(b *testing.B) {
	m := machine.DefaultMesh(8, 8)
	cyc := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}}
	L := intmat.New(2, 2, 1, 0, 3, 1)
	U := intmat.New(2, 2, 1, 2, 0, 1)
	var t float64
	for i := 0; i < b.N; i++ {
		t = machine.DecomposedTime(m, cyc, []*intmat.Mat{L, U}, 64, 64, 64)
	}
	b.ReportMetric(t, "model-µs")
}

// --- Figure 8: grouped partition vs standard distributions ---

func benchFig8(b *testing.B, d0 distrib.Dist1D, k int64) {
	m := machine.DefaultMesh(8, 8)
	d := distrib.Dist2D{D0: d0, D1: distrib.Block{}}
	var t float64
	for i := 0; i < b.N; i++ {
		t = m.Time(machine.ElementaryRowComm(m, d, k, 64, 64, 64))
	}
	b.ReportMetric(t, "model-µs")
}

func BenchmarkFigure8GroupedK2(b *testing.B)     { benchFig8(b, distrib.Grouped{K: 2}, 2) }
func BenchmarkFigure8BlockK2(b *testing.B)       { benchFig8(b, distrib.Block{}, 2) }
func BenchmarkFigure8CyclicK2(b *testing.B)      { benchFig8(b, distrib.Cyclic{}, 2) }
func BenchmarkFigure8BlockCyclicK2(b *testing.B) { benchFig8(b, distrib.BlockCyclic{B: 4}, 2) }
func BenchmarkFigure8GroupedK4(b *testing.B)     { benchFig8(b, distrib.Grouped{K: 4}, 4) }
func BenchmarkFigure8BlockK4(b *testing.B)       { benchFig8(b, distrib.Block{}, 4) }
func BenchmarkFigure8CyclicK4(b *testing.B)      { benchFig8(b, distrib.Cyclic{}, 4) }
func BenchmarkFigure8BlockCyclicK4(b *testing.B) { benchFig8(b, distrib.BlockCyclic{B: 4}, 4) }
func BenchmarkFigure8GroupedK8(b *testing.B)     { benchFig8(b, distrib.Grouped{K: 8}, 8) }
func BenchmarkFigure8BlockK8(b *testing.B)       { benchFig8(b, distrib.Block{}, 8) }

// BenchmarkFigure8FullSweep regenerates all three panels per
// iteration, as cmd/paperfigs does.
func BenchmarkFigure8FullSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure8(8, 8, 64, []int{2, 4, 8})
	}
}

// --- Sections 2-3: the motivating example, end to end ---

func BenchmarkMotivatingExamplePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MotivatingExample(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 7.2 / Example 5: ours vs Platonoff ---

func BenchmarkExample5Ours(b *testing.B) {
	p := affine.Example5()
	var resid int
	for i := 0; i < b.N; i++ {
		res, err := alignment.Align(p, 2, alignment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		resid = len(res.ResidualComms())
	}
	b.ReportMetric(float64(resid), "residual-comms")
}

func BenchmarkExample5Platonoff(b *testing.B) {
	p := affine.Example5()
	var resid int
	for i := 0; i < b.N; i++ {
		res, err := baselines.Platonoff(p, 2)
		if err != nil {
			b.Fatal(err)
		}
		resid = res.ResidualCount()
	}
	b.ReportMetric(float64(resid), "residual-comms")
}

func BenchmarkExample5ModelCost(b *testing.B) {
	var r experiments.Example5Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Example5(32, 100, 256)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PlatonoffTime, "platonoff-model-µs")
	b.ReportMetric(r.OursTime, "ours-model-µs")
}

// --- Ablations: design choices of the heuristic ---

func benchAblationVolume(b *testing.B, opts alignment.Options) {
	p := affine.PaperExample1()
	var vol int
	for i := 0; i < b.N; i++ {
		res, err := alignment.Align(p, 2, opts)
		if err != nil {
			b.Fatal(err)
		}
		vol = 0
		for _, c := range res.Graph.Comms {
			if res.LocalComms[c.ID] {
				vol += c.Rank
			}
		}
	}
	b.ReportMetric(float64(vol), "local-volume")
}

func BenchmarkAblationVolumeWeights(b *testing.B) {
	benchAblationVolume(b, alignment.Options{})
}

func BenchmarkAblationUnitWeights(b *testing.B) {
	benchAblationVolume(b, alignment.Options{UnitWeights: true})
}

func BenchmarkAblationNoAugmentation(b *testing.B) {
	benchAblationVolume(b, alignment.Options{NoAugmentation: true})
}

func BenchmarkAblationGreedyBaseline(b *testing.B) {
	p := affine.PaperExample1()
	var vol int
	for i := 0; i < b.N; i++ {
		res, err := baselines.FeautrierGreedy(p, 2)
		if err != nil {
			b.Fatal(err)
		}
		vol = 0
		for _, c := range res.Graph.Comms {
			if res.LocalComms[c.ID] {
				vol += c.Rank
			}
		}
	}
	b.ReportMetric(float64(vol), "local-volume")
}

func BenchmarkAblationDecompositionCap(b *testing.B) {
	// value of allowing up to 4 factors instead of 2 on the small
	// SL2(Z) population: count matrices that decompose.
	var within2, within4 int
	for i := 0; i < b.N; i++ {
		within2, within4 = 0, 0
		for a := int64(-3); a <= 3; a++ {
			for bb := int64(-3); bb <= 3; bb++ {
				for c := int64(-3); c <= 3; c++ {
					for d := int64(-3); d <= 3; d++ {
						if a*d-bb*c != 1 {
							continue
						}
						t := intmat.New(2, 2, a, bb, c, d)
						if _, ok := decomp.DecomposeAtMost(t, 2); ok {
							within2++
						}
						if _, ok := decomp.DecomposeAtMost(t, 4); ok {
							within4++
						}
					}
				}
			}
		}
	}
	b.ReportMetric(float64(within2), "decomposable-len2")
	b.ReportMetric(float64(within4), "decomposable-len4")
}

// --- batch engine: sequential vs parallel throughput ---

// benchEngine runs the default ≥100-scenario suite through the batch
// engine. Comparing BenchmarkEngineSequential with
// BenchmarkEngineParallel measures the worker-pool speedup on a
// multi-core runner (identical plans either way — the engine is
// deterministic in the worker count); the NoCache variant isolates
// the contribution of the memo cache.
func benchEngine(b *testing.B, workers int, disableCache bool) {
	suite := scenarios.Generate(scenarios.Config{Seed: 7})
	if len(suite) < 100 {
		b.Fatalf("suite has %d scenarios, want ≥ 100", len(suite))
	}
	b.ResetTimer()
	var res *engine.BatchResult
	for i := 0; i < b.N; i++ {
		res = engine.Run(suite, engine.Options{Workers: workers, DisableCache: disableCache})
	}
	if res.Errors == len(res.Results) {
		b.Fatal("every scenario failed")
	}
	b.ReportMetric(float64(len(suite)), "scenarios")
	b.ReportMetric(res.TotalModelTime, "model-µs")
}

// BenchmarkBigSweep runs the published big-sweep suite (the spec
// baselines/big-sweep.json records: seed 42, random 6, deep 4, skew,
// big meshes, m 3 — 200 scenarios) through a fresh engine.Session per
// op, so every op pays the cold work: plans, collective selection and
// the mesh cost layer's templates.
func BenchmarkBigSweep(b *testing.B) {
	suite := scenarios.Generate(scenarios.Config{Seed: 42, Random: 6, Deep: 4, Skew: true, BigMeshes: true, M: 3})
	b.ReportAllocs()
	b.ResetTimer()
	var res *engine.BatchResult
	for i := 0; i < b.N; i++ {
		res = engine.Run(suite, engine.Options{})
	}
	if len(res.Results) != 200 || res.Errors != 0 {
		b.Fatalf("big sweep: %d results, %d errors; want 200, 0", len(res.Results), res.Errors)
	}
	b.ReportMetric(res.TotalModelTime, "model-µs")
}

func BenchmarkEngineSequential(b *testing.B) { benchEngine(b, 1, false) }
func BenchmarkEngineParallel(b *testing.B)   { benchEngine(b, 0, false) }
func BenchmarkEngineNoCache(b *testing.B)    { benchEngine(b, 0, true) }

// BenchmarkEngineScenarioGen isolates suite generation itself.
func BenchmarkEngineScenarioGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = scenarios.Generate(scenarios.Config{Seed: 7})
	}
}

// --- component micro-benchmarks ---

func BenchmarkEdmondsBranching(b *testing.B) {
	g, err := accessgraph.Build(affine.PaperExample1(), 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = g.MaximumBranchingOfGraph()
	}
}

func BenchmarkHermiteLeft(b *testing.B) {
	m := intmat.New(3, 2, 12, 4, 6, 8, 10, 14)
	for i := 0; i < b.N; i++ {
		_, _ = intmat.HermiteLeft(m)
	}
}

func BenchmarkDecomposeTable2Matrix(b *testing.B) {
	t := intmat.New(2, 2, 1, 2, 3, 7)
	for i := 0; i < b.N; i++ {
		if _, ok := decomp.DecomposeAtMost(t, 4); !ok {
			b.Fatal("decomposition failed")
		}
	}
}

func BenchmarkFullPipelineAllExamples(b *testing.B) {
	ps := affine.AllExamples()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			if _, err := core.Optimize(p, 2, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
