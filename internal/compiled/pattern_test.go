package compiled_test

import (
	"testing"

	"repro/internal/compiled"
	"repro/internal/distrib"
	"repro/internal/intmat"
	"repro/internal/machine"
)

// TestPatternTemplateHits gates the warm pattern path: once compiled,
// a general or permute template prices a payload without allocating,
// and the nil pricer's cold fallback prices the same.
func TestPatternTemplateHits(t *testing.T) {
	m := machine.DefaultMesh(16, 16)
	dist := distrib.Dist2D{D0: distrib.Grouped{K: 2}, D1: distrib.BlockCyclic{B: 4}}
	tr := intmat.New(2, 2, 0, 1, 1, 0)
	l := intmat.New(2, 2, 1, 0, 3, 1)
	pr := compiled.NewPricer()
	var nilPricer *compiled.Pricer
	for _, eb := range []int64{8, 4096} {
		if got, want := pr.GeneralTime(m, dist, tr, 32, eb), nilPricer.GeneralTime(m, dist, tr, 32, eb); got != want {
			t.Fatalf("eb=%d: general template %v, cold %v", eb, got, want)
		}
		if got, want := pr.SelectPermute(m, dist, l, nil, 32, eb, ""), nilPricer.SelectPermute(m, dist, l, nil, 32, eb, ""); got != want {
			t.Fatalf("eb=%d: permute template %+v, cold %+v", eb, got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		pr.GeneralTime(m, dist, tr, 32, 64)
		pr.SelectPermute(m, dist, l, nil, 32, 64, "staggered")
	})
	if allocs != 0 {
		t.Fatalf("pattern template hits: %v allocs/op, want 0", allocs)
	}
	if st := pr.Stats(); st.Templates != 2 || st.TemplateMisses != 2 {
		t.Fatalf("want 2 compiled pattern templates, stats %+v", st)
	}
}
