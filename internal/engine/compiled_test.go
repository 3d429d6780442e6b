package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/scenarios"
)

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
