package affine_test

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/core"
)

// TestOptimizeLeavesExamplesUnchanged: the built-in examples are
// shared across requests with their text memoized, which is sound only
// while nothing downstream modifies them. Run the whole heuristic on
// every example under each target dimension and ablation, and re-render
// each one from scratch afterwards.
func TestOptimizeLeavesExamplesUnchanged(t *testing.T) {
	for _, p := range affine.AllExamples() {
		before := affine.Render(p)
		if p.String() != before {
			t.Fatalf("%s: memoized text differs from a fresh rendering", p.Name)
		}
		for _, m := range []int{2, 3} {
			for _, opts := range []core.Options{{}, {NoMacro: true}, {NoDecomposition: true}, {NoMacro: true, NoDecomposition: true}} {
				if _, err := core.Optimize(p, m, opts); err != nil {
					t.Fatalf("%s m=%d %+v: %v", p.Name, m, opts, err)
				}
				if after := affine.Render(p); after != before {
					t.Fatalf("%s m=%d %+v: core.Optimize modified the program:\n%s\nwas\n%s", p.Name, m, opts, after, before)
				}
			}
		}
	}
}
