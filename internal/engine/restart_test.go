package engine_test

import (
	"context"
	"testing"

	"repro/internal/affine"
	"repro/internal/compiled"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/scenarios"
	"repro/internal/store"
)

// restartGrid is the lattice the restart test prices every example
// over (the CI lattice smoke's grid).
const restartGrid = "mesh{4..32}x8:bytes=1k..32M"

// exampleScenarios returns the built-in examples as /v1/lattice
// builds them: m = 2, N = 16, Block×Block.
func exampleScenarios() []*scenarios.Scenario {
	dist := distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}
	var scs []*scenarios.Scenario
	for _, p := range affine.AllExamples() {
		scs = append(scs, &scenarios.Scenario{Name: p.Name, Program: p, M: 2, Dist: dist, N: 16, ElemBytes: 64})
	}
	return scs
}

// resolveAll opens the store at dir, resolves every scenario's
// compiled artifact in a fresh session, and returns the artifacts with
// the session's cache counters and the store's traffic counters.
func resolveAll(tb testing.TB, dir string, scs []*scenarios.Scenario) ([]*compiled.Artifact, engine.CacheStats, store.Stats, *compiled.Pricer) {
	tb.Helper()
	st, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	s := engine.NewSession(engine.Options{Workers: 1, Store: st})
	defer s.Close()
	arts := make([]*compiled.Artifact, len(scs))
	for i, sc := range scs {
		arts[i] = s.CompiledArtifact(context.Background(), sc)
	}
	return arts, s.CacheStats(), st.Stats(), s.Pricer()
}

// TestCompiledArtifactTiers: compiled artifacts live in the plan tier.
// A cold session computes each example once and persists it to plans/;
// a fresh session over the warm store — a restart — resolves each
// example's artifact with one plan-disk hit and no computation, and
// the resolved artifact prices every lattice point bit-identically to
// a direct structural compile.
func TestCompiledArtifactTiers(t *testing.T) {
	dir := t.TempDir()
	scs := exampleScenarios()
	n := uint64(len(scs))

	_, cold, coldStore, _ := resolveAll(t, dir, scs)
	if cold.PlanMisses != n || cold.DiskMisses != n || cold.DiskHits != 0 {
		t.Fatalf("cold session: %d plan misses, %d disk misses, %d disk hits; want %d, %d, 0",
			cold.PlanMisses, cold.DiskMisses, cold.DiskHits, n, n)
	}
	if coldStore.PlanPuts != n {
		t.Fatalf("cold session persisted %d plans, want %d", coldStore.PlanPuts, n)
	}

	arts, warm, warmStore, pr := resolveAll(t, dir, scs)
	if warm.DiskHits != n || warm.DiskMisses != 0 || warm.PlanMisses != n {
		t.Fatalf("restart: %d disk hits, %d disk misses, %d plan misses; want %d, 0, %d",
			warm.DiskHits, warm.DiskMisses, warm.PlanMisses, n, n)
	}
	if warm.KernelHits+warm.KernelMisses != 0 {
		t.Fatalf("restart ran the paper core: %d kernel lookups", warm.KernelHits+warm.KernelMisses)
	}
	if warmStore.PlanPuts != 0 || warmStore.PlanGetHits != n {
		t.Fatalf("restart store traffic: %d puts, %d plan hits; want 0, %d",
			warmStore.PlanPuts, warmStore.PlanGetHits, n)
	}

	grid, err := compiled.ParseGrid(restartGrid)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scs {
		art, direct := arts[i], compiled.Compile(sc)
		if art.Key != sc.PlanKey() || art.Err != direct.Err {
			t.Fatalf("%s: artifact key/err (%.30q, %q), want (%.30q, %q)", sc.Name, art.Key, art.Err, sc.PlanKey(), direct.Err)
		}
		for _, ms := range grid.Machines {
			for _, eb := range grid.Bytes {
				got := art.Eval(pr, ms, sc.Dist, sc.N, eb)
				want := direct.Eval(nil, ms, sc.Dist, sc.N, eb)
				if got != want {
					t.Fatalf("%s on %s at %d B: restarted artifact evaluates to %+v, direct compile to %+v",
						sc.Name, ms, eb, got, want)
				}
			}
		}
	}
}

// BenchmarkCompiledArtifactRestart times a lattice restart: a fresh
// store handle and session over a warm store resolving the artifacts
// of the ten built-in examples.
func BenchmarkCompiledArtifactRestart(b *testing.B) {
	dir := b.TempDir()
	scs := exampleScenarios()
	resolveAll(b, dir, scs)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		arts, _, _, _ := resolveAll(b, dir, scs)
		for i, a := range arts {
			if a.Key != scs[i].PlanKey() {
				b.Fatalf("%s: artifact key mismatch", scs[i].Name)
			}
		}
	}
}
