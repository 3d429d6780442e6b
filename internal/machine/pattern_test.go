package machine_test

import (
	"fmt"
	"slices"
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

// patternJob is one distinct mesh pattern of the big sweep: a general
// communication's data-flow matrix, or one decomposed (or unit-shift)
// phase.
type patternJob struct {
	general bool
	p, q    int
	dist    distrib.Dist2D
	t       *intmat.Mat
	off     []int64
	n       int
}

func (j patternJob) String() string {
	return fmt.Sprintf("%dx%d %s T=%v off=%v n=%d", j.p, j.q, j.dist.Name(), j.t, j.off, j.n)
}

// bigSweepPatterns lists every distinct pattern the pricer compiles
// over the big-sweep suite: each mesh scenario's general data-flow
// matrix (the transpose standing in for an unknown one), decomposed
// factor and unit-shift phase.
func bigSweepPatterns() []patternJob {
	suite := scenarios.Generate(scenarios.Config{Seed: 42, Random: 6, Deep: 4, Skew: true, BigMeshes: true, M: 3})
	seen := map[string]bool{}
	var jobs []patternJob
	add := func(j patternJob) {
		k := fmt.Sprintf("%v|%s", j.general, j)
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
		j := patternJob{p: sc.Machine.P, q: sc.Machine.Q, dist: sc.Dist, n: sc.N}
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
	return jobs
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
	jobs := bigSweepPatterns()
	var general, phases int
	pr := compiled.NewPricer()
	for _, j := range jobs {
		def := machine.DefaultMesh(j.p, j.q)
		alt := &machine.Mesh2D{P: j.p, Q: j.q, Startup: 37.5, PerByte: 0.0123, HopLatency: 1.75}
		for _, m := range []*machine.Mesh2D{def, alt} {
			for _, eb := range patternPayloads {
				ctxt := fmt.Sprintf("%s eb=%d startup=%v", j, eb, m.Startup)
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

// TestAffineCommMatchesAggregate: AffineComm2D aggregates while it
// enumerates, and must equal the two-pass Aggregate over the
// element-wise GeneralComm2D message for message, in order, on
// hand-made corner cases and every big-sweep pattern.
func TestAffineCommMatchesAggregate(t *testing.T) {
	cyc := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}}
	jobs := []patternJob{
		// The identity: every message is local.
		{p: 4, q: 4, dist: cyc, t: intmat.Identity(2), n: 16},
		// N divisible by neither P nor Q.
		{p: 3, q: 5, dist: distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Grouped{K: 3}}, t: intmat.New(2, 2, 1, 2, 0, 1), n: 11},
		{p: 4, q: 3, dist: distrib.Dist2D{D0: distrib.BlockCyclic{B: 2}, D1: distrib.Cyclic{}}, t: intmat.New(2, 2, 0, 1, 1, 0), off: []int64{1, 0}, n: 7},
		// Negative entries and offsets.
		{p: 4, q: 2, dist: cyc, t: intmat.New(2, 2, -1, 0, -3, 1), off: []int64{-5, -2}, n: 10},
		{p: 2, q: 4, dist: distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}, t: intmat.New(2, 2, 1, -2, 0, -1), off: []int64{-1, -9}, n: 9},
	}
	if !testing.Short() {
		jobs = append(jobs, bigSweepPatterns()...)
	}
	for i, j := range jobs {
		m := machine.DefaultMesh(j.p, j.q)
		got := machine.AffineComm2D(m, j.dist, j.t, j.off, j.n, j.n, 3)
		want := machine.Aggregate(machine.GeneralComm2D(m, j.dist, j.t, j.off, j.n, j.n, 3))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: AffineComm2D\n%v\nAggregate(GeneralComm2D)\n%v", j, got, want)
		}
		if i == 0 {
			for _, msg := range got {
				if msg.Src != msg.Dst || msg.Bytes != 3*16 {
					t.Fatalf("identity on a 4x4 mesh at N=16: message %+v, want one local 48-byte message per processor", msg)
				}
			}
			if len(got) != m.Procs() {
				t.Fatalf("identity on a 4x4 mesh at N=16: %d messages, want %d", len(got), m.Procs())
			}
		}
	}
}

// linkLoadBounds bounds a schedule round's time from XY paths alone,
// sharing nothing with the packer. A message's own cost is what it
// would cost in a round by itself. Messages that share a directed
// link land in distinct rounds, and a round costs at least the own
// cost of each of its messages, so the round's time is at least the
// busiest link's sum of own costs; a round costs at most the sum of
// its messages' own costs, so the time is at most the sum over all
// non-local messages.
func linkLoadBounds(m *machine.Mesh2D, r collective.Round) (lo, hi float64) {
	load := make([]float64, m.P*m.Q*4)
	sign := func(d int) (int, int) {
		if d < 0 {
			return -1, 0
		}
		return 1, 1
	}
	for _, msg := range r {
		if msg.Src == msg.Dst {
			continue
		}
		x1, y1 := msg.Src/m.Q, msg.Src%m.Q
		x2, y2 := msg.Dst/m.Q, msg.Dst%m.Q
		hops := max(x2-x1, x1-x2) + max(y2-y1, y1-y2)
		own := m.Startup + float64(msg.Bytes)*m.PerByte + float64(hops)*m.HopLatency
		hi += own
		// x first along row y1, then y along column x2; a link is
		// indexed by the node it leaves, its dimension and direction.
		dx, ix := sign(x2 - x1)
		for x := x1; x != x2; x += dx {
			load[((x*m.Q+y1)*2+0)*2+ix] += own
		}
		dy, iy := sign(y2 - y1)
		for y := y1; y != y2; y += dy {
			load[((x2*m.Q+y)*2+1)*2+iy] += own
		}
	}
	for _, l := range load {
		lo = max(lo, l)
	}
	return lo, hi
}

// TestPatternLinkLoadBounds checks the packer against link-load
// bounds that share nothing with it: every round of every big-sweep
// general pattern and of every forced permute schedule, at every
// payload, must cost between its bounds, and so must the pricer's
// template price of the whole schedule. The tolerance is relative:
// the bounds add in another order than the packer does.
func TestPatternLinkLoadBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("big-sweep link-load bounds are not a -short test")
	}
	const tol = 1e-9
	within := func(v, lo, hi float64) bool { return v >= lo*(1-tol) && v <= hi*(1+tol) }
	check := func(ctxt string, m *machine.Mesh2D, rounds []collective.Round, cost float64) {
		t.Helper()
		var sumLo, sumHi float64
		for i, r := range rounds {
			lo, hi := linkLoadBounds(m, r)
			if got := m.Time(r); !within(got, lo, hi) {
				t.Fatalf("%s: round %d costs %v, outside its link-load bounds [%v, %v]", ctxt, i, got, lo, hi)
			}
			sumLo += lo
			sumHi += hi
		}
		if !within(cost, sumLo, sumHi) {
			t.Fatalf("%s: template prices %v, outside the link-load bounds [%v, %v]", ctxt, cost, sumLo, sumHi)
		}
	}
	pr := compiled.NewPricer()
	var rounds int
	for _, j := range bigSweepPatterns() {
		m := machine.DefaultMesh(j.p, j.q)
		for _, eb := range patternPayloads {
			ctxt := fmt.Sprintf("%s eb=%d", j, eb)
			if j.general {
				msgs := machine.GeneralComm2D(m, j.dist, j.t, nil, j.n, j.n, eb)
				check(ctxt, m, []collective.Round{msgs}, pr.GeneralTime(m, j.dist, j.t, j.n, eb))
				rounds++
				continue
			}
			msgs := machine.AffineComm2D(m, j.dist, j.t, j.off, j.n, j.n, eb)
			for _, algo := range collective.PermuteAlgorithms() {
				sched := collective.PermuteRounds(m, msgs, algo)
				check(ctxt+" "+algo, m, sched, pr.SelectPermute(m, j.dist, j.t, j.off, j.n, eb, algo).Cost)
				rounds += len(sched)
			}
		}
	}
	if rounds == 0 {
		t.Fatal("the big sweep priced no pattern rounds")
	}
}
