package compiled_test

import (
	"testing"

	"repro/internal/collective"
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

// TestPatternTemplateEmptyPhases: a template drops exactly the
// schedule rounds SelectPermute drops. Direct keeps its one round
// even when every message is local; a corner-routing schedule loses
// an empty phase. The template's Choice, round count included, must
// equal SelectPermute's under every force pin for a pattern with
// every message local, one whose xy-phased first phase is empty (a
// shift along y: every corner is the source) and one whose second is
// empty (a shift along x: every corner is the destination).
func TestPatternTemplateEmptyPhases(t *testing.T) {
	m := machine.DefaultMesh(4, 4)
	dist := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}}
	id := intmat.Identity(2)
	cases := []struct {
		name string
		off  []int64
		// rounds per forced algorithm: direct, xy-phased, staggered.
		rounds [3]int
	}{
		{"all local", []int64{0, 0}, [3]int{1, 0, 0}},
		{"phase 1 empty", []int64{0, 1}, [3]int{1, 1, 2}},
		{"phase 2 empty", []int64{1, 0}, [3]int{1, 1, 2}},
	}
	pr := compiled.NewPricer()
	for _, c := range cases {
		for _, eb := range []int64{1, 4096} {
			msgs := machine.AffineComm2D(m, dist, id, c.off, 16, 16, eb)
			for _, force := range []string{"", "direct", "xy-phased", "staggered"} {
				want := collective.SelectPermute(m, msgs, force)
				got := pr.SelectPermute(m, dist, id, c.off, 16, eb, force)
				if got != want {
					t.Fatalf("%s eb=%d force=%q: template %s in %d rounds at %v, SelectPermute %s in %d rounds at %v",
						c.name, eb, force, got, got.Rounds, got.Cost, want, want.Rounds, want.Cost)
				}
			}
			for i, algo := range collective.PermuteAlgorithms() {
				if got := pr.SelectPermute(m, dist, id, c.off, 16, eb, algo); got.Rounds != c.rounds[i] {
					t.Fatalf("%s eb=%d: %s has %d rounds, want %d", c.name, eb, algo, got.Rounds, c.rounds[i])
				}
			}
		}
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestPatternCompileAllocs gates cold pattern-template compilation on
// mesh16x16 at N = 64: one decomposed phase, compiled under every
// permute algorithm, and one general pattern. Compilation packs each
// phase as it is emitted and streams a general pattern's 4096 element
// messages straight into the packer, so neither builds an n×n message
// list. The bounds sit under 10% above the measured counts (65 and
// 24; building and aggregating the message lists took 113 and 37).
// Compilation borrows the pooled packer, which the race detector
// makes allocate.
func TestPatternCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	m := machine.DefaultMesh(16, 16)
	dist := distrib.Dist2D{D0: distrib.Grouped{K: 2}, D1: distrib.BlockCyclic{B: 4}}
	l := intmat.New(2, 2, 1, 0, 3, 1)
	tr := intmat.New(2, 2, 0, 1, 1, 0)
	for _, c := range []struct {
		name string
		max  float64
		run  func(pr *compiled.Pricer)
	}{
		{"permute phase", 71, func(pr *compiled.Pricer) { pr.SelectPermute(m, dist, l, nil, 64, 8, "") }},
		{"general pattern", 26, func(pr *compiled.Pricer) { pr.GeneralTime(m, dist, tr, 64, 8) }},
	} {
		if n := testing.AllocsPerRun(5, func() { c.run(compiled.NewPricer()) }); n > c.max {
			t.Fatalf("a cold %s compile allocates %.0f times, want ≤ %.0f", c.name, n, c.max)
		}
	}
}
