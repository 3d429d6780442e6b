package machine_test

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/intmat"
	"repro/internal/machine"
	"repro/internal/scenarios"
)

// patternPayloads spans 1 B to 16 MiB per element, odd sizes
// included.
var patternPayloads = []int64{1, 7, 4096, 65537, 16<<20 - 1, 16 << 20}

// permuteForces is every force pin a phase can see: free selection,
// each permute algorithm, and a mesh tree name, which pins nothing
// here and falls back to free selection.
var permuteForces = []string{"", "direct", "xy-phased", "staggered", "flat"}

// referencePermuteCost prices the named permute schedule of a pattern
// with the reference packer, round by round as MeshCost folds.
func referencePermuteCost(m *machine.Mesh2D, msgs []machine.Message, algo string) float64 {
	total := 0.0
	for _, r := range collective.PermuteRounds(m, msgs, algo) {
		total += machine.ReferenceTime(m, r)
	}
	return total
}

// TestPatternTemplatesMatchReference checks the pricer's general and
// permute pattern templates bit for bit against cold pricing over the
// whole big-sweep suite: every mesh scenario's general data-flow
// matrix, decomposed factor and unit-shift phase, at every payload,
// under every force pin, on the default calibration and a perturbed
// one (templates are calibration-independent). A general pattern must
// equal the reference packer over GeneralComm2D; a phase must equal
// collective.SelectPermute, whose winning cost must equal the
// reference packer over the winner's schedule.
func TestPatternTemplatesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("big-sweep pattern equivalence is not a -short test")
	}
	suite := scenarios.Generate(scenarios.Config{Seed: 42, Random: 6, Deep: 4, Skew: true, BigMeshes: true, M: 3})
	type job struct {
		general bool
		p, q    int
		dist    distrib.Dist2D
		t       *intmat.Mat
		off     []int64
		n       int
	}
	seen := map[string]bool{}
	var jobs []job
	add := func(j job) {
		k := fmt.Sprintf("%v|%d|%d|%s|%v|%v|%d", j.general, j.p, j.q, j.dist.Name(), j.t, j.off, j.n)
		if !seen[k] {
			seen[k] = true
			jobs = append(jobs, j)
		}
	}
	arts := map[string]*compiled.Artifact{}
	for i := range suite {
		sc := &suite[i]
		if sc.Machine.Kind != scenarios.Mesh {
			continue
		}
		art, ok := arts[sc.PlanKey()]
		if !ok {
			art = compiled.Compile(sc)
			arts[sc.PlanKey()] = art
		}
		j := job{p: sc.Machine.P, q: sc.Machine.Q, dist: sc.Dist, n: sc.N}
		for _, pl := range art.Plans {
			switch pl.Class {
			case core.General:
				j.general, j.t, j.off = true, pl.Dataflow, nil
				if j.t == nil || j.t.Rows() != 2 || j.t.Cols() != 2 {
					j.t = intmat.New(2, 2, 0, 1, 1, 0)
				}
				add(j)
			case core.Decomposed:
				j.general = false
				if len(pl.Factors) > 0 && pl.Factors[0].Rows() == 2 && pl.Factors[0].Cols() == 2 {
					for _, f := range pl.Factors {
						j.t, j.off = f, nil
						add(j)
					}
				} else {
					j.t, j.off = intmat.Identity(2), []int64{1, 1}
					add(j)
				}
			}
		}
	}
	var general, phases int
	pr := compiled.NewPricer()
	for _, j := range jobs {
		def := machine.DefaultMesh(j.p, j.q)
		alt := &machine.Mesh2D{P: j.p, Q: j.q, Startup: 37.5, PerByte: 0.0123, HopLatency: 1.75}
		for _, m := range []*machine.Mesh2D{def, alt} {
			for _, eb := range patternPayloads {
				ctxt := fmt.Sprintf("%dx%d %s T=%v off=%v n=%d eb=%d startup=%v", j.p, j.q, j.dist.Name(), j.t, j.off, j.n, eb, m.Startup)
				if j.general {
					general++
					want := machine.ReferenceTime(m, machine.GeneralComm2D(m, j.dist, j.t, nil, j.n, j.n, eb))
					if got := pr.GeneralTime(m, j.dist, j.t, j.n, eb); got != want {
						t.Fatalf("%s: general template %v, reference %v", ctxt, got, want)
					}
					continue
				}
				msgs := machine.AffineComm2D(m, j.dist, j.t, j.off, j.n, j.n, eb)
				for _, force := range permuteForces {
					phases++
					want := collective.SelectPermute(m, msgs, force)
					if ref := referencePermuteCost(m, msgs, want.Algorithm); want.Cost != ref {
						t.Fatalf("%s force=%q: SelectPermute %s costs %v, reference %v", ctxt, force, want.Algorithm, want.Cost, ref)
					}
					if got := pr.SelectPermute(m, j.dist, j.t, j.off, j.n, eb, force); got != want {
						t.Fatalf("%s force=%q: permute template %+v, SelectPermute %+v", ctxt, force, got, want)
					}
				}
			}
		}
	}
	if general == 0 || phases == 0 {
		t.Fatalf("suite exercised %d general and %d phase prices; want both", general, phases)
	}
	if st := pr.Stats(); st.Templates != len(jobs) {
		t.Fatalf("pricer holds %d templates for %d distinct patterns", st.Templates, len(jobs))
	}
}
