package engine

import (
	"context"
	"testing"

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
