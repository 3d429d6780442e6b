package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compiled"
	"repro/internal/distrib"
	"repro/internal/scenarios"
)

// benchLatticeGrid is the 64-point capacity-planning lattice the
// compiled-tier benchmarks sweep: 4 mesh geometries × 16 payloads,
// the bytes-heavy shape of a switch-point scan (where along the
// payload axis does the chosen schedule flip?).
func benchLatticeGrid(b *testing.B) *compiled.Grid {
	g, err := compiled.ParseGrid("mesh{4..32}x8:bytes=1k..32M")
	if err != nil {
		b.Fatal(err)
	}
	if g.Points() != 64 {
		b.Fatalf("lattice grid has %d points, want 64", g.Points())
	}
	return g
}

// benchLatticeNest is the deep macro-dominated nest the lattice
// benchmarks sweep: its plans are local and macro-communication
// shapes only, so the compiled evaluator prices each lattice point
// with pure template arithmetic — the capacity-planning shape the
// compiled tier exists for. (Decomposed/general-heavy nests pay the
// same pattern simulation on both paths; they are covered by the
// equivalence tests, not the speedup benchmark.)
func benchLatticeNest() scenarios.Scenario {
	suite := scenarios.Generate(scenarios.Config{Seed: 42, Random: 1, NoExamples: true, Deep: 6, M: 3})
	for i := range suite {
		if suite[i].Program.Name == "deep005" {
			return suite[i]
		}
	}
	panic("benchmark nest deep005 missing from generated suite")
}

// BenchmarkCompiledLattice measures the compiled path over the
// 64-point lattice: one structural compile plus 64 cheap template
// evaluations per iteration (fresh pricer each iteration, so template
// compilation is charged too). Compare against
// BenchmarkUncompiledLattice — the ratio is the compile-once/
// evaluate-many win the compiled tier exists for.
func BenchmarkCompiledLattice(b *testing.B) {
	g := benchLatticeGrid(b)
	base := benchLatticeNest()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := compiled.NewPricer()
		art := compiled.Compile(&base)
		if art.Err != "" {
			b.Fatal(art.Err)
		}
		for _, ms := range g.Machines {
			for _, eb := range g.Bytes {
				pt := art.Eval(pr, ms, base.Dist, base.N, eb)
				sink += pt.ModelTime
			}
		}
	}
	b.ReportMetric(sink, "model-µs")
}

// BenchmarkUncompiledLattice is the same 64-point sweep without the
// compiled tier: every lattice point pays a full cold optimization
// and cold collective selection, exactly what a -no-cache batch of 64
// scenarios would.
func BenchmarkUncompiledLattice(b *testing.B) {
	g := benchLatticeGrid(b)
	base := benchLatticeNest()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ms := range g.Machines {
			for _, eb := range g.Bytes {
				sc := base
				sc.Machine = ms
				sc.ElemBytes = eb
				ent := optimizeCtx(context.Background(), &sc, nil)
				if ent.err != "" {
					b.Fatal(ent.err)
				}
				for _, pl := range ent.plans {
					t, _ := planTime(&sc, pl, nil)
					sink += t
				}
			}
		}
	}
	b.ReportMetric(sink, "model-µs")
}

// BenchmarkUncompiledLatticeWarm is the realistic baseline for the
// compiled tier: the same 64 points optimized one by one through a
// reused session (one worker, as the compiled sweep is sequential)
// whose plan memo and pricer are already warm, so each point is a
// plan-tier hit plus costing from warm templates — what a client
// sweeping a lattice over /v1/optimize gets from a warm daemon.
func BenchmarkUncompiledLatticeWarm(b *testing.B) {
	g := benchLatticeGrid(b)
	base := benchLatticeNest()
	batch := make([]scenarios.Scenario, 0, g.Points())
	for _, ms := range g.Machines {
		for _, eb := range g.Bytes {
			sc := base
			sc.Machine = ms
			sc.ElemBytes = eb
			batch = append(batch, sc)
		}
	}
	s := NewSession(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	sweep := func() float64 {
		sum := 0.0
		for i := range batch {
			res, err := s.Optimize(ctx, &batch[i])
			if err != nil || res.Err != "" {
				b.Fatal(err, res.Err)
			}
			sum += res.ModelTime
		}
		return sum
	}
	sweep() // warm every memo
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sweep()
	}
	b.ReportMetric(sink, "model-µs")
}

// BenchmarkCompiledCompile isolates the structural phase: one full
// compile of the benchmark nest.
func BenchmarkCompiledCompile(b *testing.B) {
	base := benchLatticeNest()
	for i := 0; i < b.N; i++ {
		if art := compiled.Compile(&base); art.Err != "" {
			b.Fatal(art.Err)
		}
	}
}

// BenchmarkCompiledEvalWarm isolates the numeric phase: pricing one
// lattice point against a warm template cache — the steady-state cost
// of widening a sweep by one point.
func BenchmarkCompiledEvalWarm(b *testing.B) {
	g := benchLatticeGrid(b)
	base := benchLatticeNest()
	pr := compiled.NewPricer()
	art := compiled.Compile(&base)
	if art.Err != "" {
		b.Fatal(art.Err)
	}
	for _, ms := range g.Machines {
		for _, eb := range g.Bytes {
			art.Eval(pr, ms, base.Dist, base.N, eb) // warm every template
		}
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		pt := art.Eval(pr, g.Machines[i%len(g.Machines)], base.Dist, base.N, g.Bytes[i%len(g.Bytes)])
		sink += pt.ModelTime
	}
	b.ReportMetric(sink, "model-µs")
}

// BenchmarkCompiledSweepWarm is the compiled counterpart of
// BenchmarkUncompiledLatticeWarm: the same 64 points as one
// Grid.Sweep off an artifact whose templates the pricer already
// holds.
func BenchmarkCompiledSweepWarm(b *testing.B) {
	g := benchLatticeGrid(b)
	base := benchLatticeNest()
	pr := compiled.NewPricer()
	art := compiled.Compile(&base)
	if art.Err != "" {
		b.Fatal(art.Err)
	}
	g.Sweep(art, pr, base.Dist, base.N) // warm every template
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, row := range g.Sweep(art, pr, base.Dist, base.N) {
			sink += row.Point.ModelTime
		}
	}
	b.ReportMetric(sink, "model-µs")
}

// BenchmarkEngineCold measures the paper core behind a cached session
// on never-seen nests: each iteration optimizes a distinct RandomNest
// (m = 2) or RandomDeepNest (m = 3) on fattree32, sent from two
// goroutines like two concurrent clients. The plan tier always
// misses, so alignment, Hermite forms, kernel bases, macro detection
// and decomposition run every time, their kernels through the
// session's memo.
func BenchmarkEngineCold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batch := make([]scenarios.Scenario, b.N)
	for i := range batch {
		name := fmt.Sprintf("cold%06d", i)
		sc := scenarios.Scenario{
			Name:      name,
			M:         2,
			Machine:   scenarios.MachineSpec{Kind: scenarios.FatTree, P: 32},
			Dist:      distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}},
			N:         16,
			ElemBytes: 64,
		}
		if i%2 == 0 {
			sc.Program = scenarios.RandomNest(rng, name)
		} else {
			sc.Program, sc.M = scenarios.RandomDeepNest(rng, name), 3
		}
		batch[i] = sc
	}
	sess := NewSession(Options{Workers: 2})
	defer sess.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(batch)); i = next.Add(1) - 1 {
				if _, err := sess.Optimize(context.Background(), &batch[i]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if st := sess.CacheStats(); st.PlanHits != 0 {
		b.Fatalf("cold benchmark served %d plans from memory", st.PlanHits)
	}
}
