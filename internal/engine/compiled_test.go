package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/compiled"
	"repro/internal/scenarios"
)

// fakeCompiledStore is an in-memory PlanStore + CompiledStore (the
// real implementation lives in internal/store, which cannot be
// imported from engine's internal tests).
type fakeCompiledStore struct {
	plans    map[string][]PlanRecord
	planErrs map[string]string
	compiled map[string]compiled.ArtifactRec

	compiledPuts, compiledHits uint64
}

func newFakeCompiledStore() *fakeCompiledStore {
	return &fakeCompiledStore{
		plans:    map[string][]PlanRecord{},
		planErrs: map[string]string{},
		compiled: map[string]compiled.ArtifactRec{},
	}
}

func (f *fakeCompiledStore) GetPlan(key string) ([]PlanRecord, string, bool) {
	recs, ok := f.plans[key]
	return recs, f.planErrs[key], ok
}

func (f *fakeCompiledStore) PutPlan(key string, plans []PlanRecord, errMsg string) {
	f.plans[key], f.planErrs[key] = plans, errMsg
}

func (f *fakeCompiledStore) GetCompiled(key string) (compiled.ArtifactRec, bool) {
	rec, ok := f.compiled[key]
	if ok {
		f.compiledHits++
	}
	return rec, ok
}

func (f *fakeCompiledStore) PutCompiled(key string, rec compiled.ArtifactRec) {
	f.compiled[key] = rec
	f.compiledPuts++
}

// TestCompiledArtifactTiers walks an artifact through the three-tier
// lookup: computed on the first session (plan tier shared), served
// from memory on the second request, and served from the disk tier by
// a fresh session on the same store.
func TestCompiledArtifactTiers(t *testing.T) {
	st := newFakeCompiledStore()
	suite := scenarios.Generate(scenarios.Config{Random: 1})
	sc := &suite[0]

	s1 := NewSession(Options{Workers: 1, Store: st})
	a1 := s1.CompiledArtifact(context.Background(), sc)
	if a1.Key != sc.PlanKey() {
		t.Fatalf("artifact key %q != plan key %q", a1.Key, sc.PlanKey())
	}
	cs := s1.CacheStats()
	if cs.CompiledHits != 0 || cs.CompiledMisses != 1 || cs.CompiledDiskHits != 0 || cs.CompiledDiskMisses != 1 {
		t.Fatalf("first lookup stats: %+v", cs)
	}
	a2 := s1.CompiledArtifact(context.Background(), sc)
	if a2 != a1 {
		t.Fatal("second lookup did not serve the cached artifact")
	}
	if cs = s1.CacheStats(); cs.CompiledHits != 1 {
		t.Fatalf("second lookup stats: %+v", cs)
	}
	s1.Close()

	s2 := NewSession(Options{Workers: 1, Store: st})
	defer s2.Close()
	a3 := s2.CompiledArtifact(context.Background(), sc)
	if cs = s2.CacheStats(); cs.CompiledDiskHits != 1 || cs.CompiledDiskMisses != 0 {
		t.Fatalf("warm-store lookup stats: %+v", cs)
	}

	// All three artifacts (computed, cached, disk-loaded) and a direct
	// structural compile must evaluate identically.
	direct := compiled.Compile(sc)
	pts := make([]compiled.Point, 0, 4)
	for _, a := range []*compiled.Artifact{a1, a2, a3, direct} {
		pts = append(pts, a.Eval(s2.Pricer(), sc.Machine, sc.Dist, sc.N, sc.ElemBytes))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] != pts[0] {
			t.Fatalf("artifact %d evaluates differently: %+v vs %+v", i, pts[i], pts[0])
		}
	}
	if st.compiledPuts == 0 || st.compiledHits == 0 {
		t.Fatalf("store compiled-tier traffic did not move: puts=%d hits=%d", st.compiledPuts, st.compiledHits)
	}
}

// TestCompiledEvalThroughSessionMatchesRun cross-checks the session
// path end to end: for every scenario of a mixed suite, evaluating
// the session's compiled artifact with the session's pricer must
// reproduce the session's own batch results bit-identically.
func TestCompiledEvalThroughSessionMatchesRun(t *testing.T) {
	suite := scenarios.Generate(scenarios.Config{Random: 3, Skew: true})
	s := NewSession(Options{})
	defer s.Close()
	batch, err := s.Run(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	for i := range suite {
		sc := &suite[i]
		art := s.CompiledArtifact(context.Background(), sc)
		res := batch.Results[i]
		if res.Err != "" || art.Err != "" {
			if (res.Err != "") != (art.Err != "") {
				t.Fatalf("%s: err mismatch %q vs %q", sc.Name, res.Err, art.Err)
			}
			continue
		}
		pt := art.Eval(s.Pricer(), sc.Machine, sc.Dist, sc.N, sc.ElemBytes)
		if pt.ModelTime != res.ModelTime || pt.Classes != res.Classes ||
			pt.Vectorizable != res.Vectorizable || pt.Collectives != res.Collectives {
			t.Fatalf("%s: compiled eval diverges from batch result\n  run:  %+v\n  eval: %+v", sc.Name, res, pt)
		}
	}
	if cs := s.CacheStats(); cs.CompiledEvals == 0 || cs.CompiledTemplates == 0 {
		t.Fatalf("pricer counters did not move: %+v", cs)
	}
}

// TestSelKeyDistinct is the selection-memo key property test: any
// difference in machine spec (kind, extents, pinned algorithm),
// pattern, macro dims or payload must produce a distinct key — a
// collision would serve one selection for another.
func TestSelKeyDistinct(t *testing.T) {
	specs := []scenarios.MachineSpec{
		{Kind: scenarios.Mesh, P: 8, Q: 8},
		{Kind: scenarios.Mesh, P: 8, Q: 4},
		{Kind: scenarios.Mesh, P: 4, Q: 8},
		{Kind: scenarios.Mesh, P: 8, Q: 8, Algo: "flat"},
		{Kind: scenarios.FatTree, P: 64},
		{Kind: scenarios.FatTree, P: 64, Algo: "binomial-sw"},
	}
	type in struct {
		spec  scenarios.MachineSpec
		p     collective.Pattern
		dims  string
		bytes int64
	}
	dimsCases := [][]int{nil, {0}, {1}, {0, 1}, {0, 2}}
	seen := map[string]in{}
	for _, spec := range specs {
		for _, p := range []collective.Pattern{collective.Broadcast, collective.Reduction, collective.Shift} {
			for di, dims := range dimsCases {
				for _, bytes := range []int64{1, 64, 1024, 1 << 20} {
					k := selKey(spec, p, dims, bytes)
					c := in{spec, p, fmt.Sprint(dimsCases[di]), bytes}
					if prev, dup := seen[k]; dup {
						t.Fatalf("selKey collision %q:\n  %+v\n  %+v", k, prev, c)
					}
					seen[k] = c
				}
			}
		}
	}
}

// TestCompiledArtifactUsesKernelMemo: an artifact compiled on a
// goroutine outside the worker pool (the /v1/lattice handler calls
// CompiledArtifact directly) still computes its kernels through the
// session's memo.
func TestCompiledArtifactUsesKernelMemo(t *testing.T) {
	sess := NewSession(Options{Workers: 1})
	defer sess.Close()
	sc := scenarios.Generate(scenarios.Config{Seed: 7, Random: 1, NoExamples: true})[0]
	if art := sess.CompiledArtifact(context.Background(), &sc); art.Err != "" {
		t.Fatal(art.Err)
	}
	if st := sess.CacheStats(); st.KernelHits+st.KernelMisses == 0 {
		t.Errorf("cold compile bypassed the kernel memo: %+v", st)
	}
}
