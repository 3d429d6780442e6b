package collective

import (
	"fmt"
	"strings"

	"repro/internal/machine"
)

// Per-plane scheduling generalizes the p=1 per-line collectives to
// macro-communications with p ≥ 2 distributed dimensions: the macro
// decomposes into one collective per hyperplane of the non-distributed
// grid dimensions, and each plane collective runs as a two-phase
// composition — a tree along one plane dimension on the plane's root
// line, then concurrent per-line trees along the orthogonal dimension.
// On the 2-D mesh a macro spanning both physical axes has a single
// plane (the whole machine); the machinery still supports arbitrary
// plane sets because the planes of one macro execute concurrently:
// their trees' rounds are merged index-wise and priced through the
// link-contention model, overlapped rather than serialized, exactly
// like the lines of a per-line collective.

// Plane is an axis-aligned rectangular subgrid of the mesh: the
// processors (x, y) with X0 ≤ x < X0+W and Y0 ≤ y < Y0+H, rooted at
// the (X0, Y0) corner.
type Plane struct {
	X0, Y0, W, H int
}

// FullPlane is the single plane covering the whole mesh — the plane
// set of a macro-communication spanning both physical grid axes.
func FullPlane(m *machine.Mesh2D) Plane { return Plane{X0: 0, Y0: 0, W: m.P, H: m.Q} }

// valid reports whether the plane fits the mesh.
func (pl Plane) valid(m *machine.Mesh2D) bool {
	return pl.W >= 1 && pl.H >= 1 && pl.X0 >= 0 && pl.Y0 >= 0 &&
		pl.X0+pl.W <= m.P && pl.Y0+pl.H <= m.Q
}

// planeScope names the scope of a two-phase plane schedule:
// "plane01" runs dimension 0 first, "plane10" dimension 1 first.
func planeScope(dimFirst int) string {
	if dimFirst == 0 {
		return "plane01"
	}
	return "plane10"
}

// planePhaseLines decomposes a plane set into the two phase line
// sets of the composition: phase 1 is one root line per plane along
// dimFirst (at the plane's first coordinate of the orthogonal
// dimension), phase 2 is every line of every plane along the
// orthogonal dimension. After phase 1 each phase-2 line root holds
// the payload, so concatenating the phases delivers the whole plane.
func planePhaseLines(m *machine.Mesh2D, planes []Plane, dimFirst int) (phase1, phase2 [][]int) {
	for _, pl := range planes {
		if dimFirst == 0 {
			line := make([]int, pl.W)
			for i := 0; i < pl.W; i++ {
				line[i] = m.Rank(pl.X0+i, pl.Y0)
			}
			phase1 = append(phase1, line)
			for i := 0; i < pl.W; i++ {
				l2 := make([]int, pl.H)
				for j := 0; j < pl.H; j++ {
					l2[j] = m.Rank(pl.X0+i, pl.Y0+j)
				}
				phase2 = append(phase2, l2)
			}
		} else {
			line := make([]int, pl.H)
			for j := 0; j < pl.H; j++ {
				line[j] = m.Rank(pl.X0, pl.Y0+j)
			}
			phase1 = append(phase1, line)
			for j := 0; j < pl.H; j++ {
				l2 := make([]int, pl.W)
				for i := 0; i < pl.W; i++ {
					l2[i] = m.Rank(pl.X0+i, pl.Y0+j)
				}
				phase2 = append(phase2, l2)
			}
		}
	}
	return phase1, phase2
}

// planeAlgoName renders the two phase algorithms of a plane schedule
// as one name, phases in broadcast order.
func planeAlgoName(algo1, algo2 string) string { return algo1 + "+" + algo2 }

// planeAlgoNames[i][j] is planeAlgoName(meshAlgos[i].name,
// meshAlgos[j].name), rendered once so that neither compiling nor
// evaluating a plane template builds a name. Read-only after init.
var planeAlgoNames = func() [][]string {
	names := make([][]string, len(meshAlgos))
	for i, a1 := range meshAlgos {
		names[i] = make([]string, len(meshAlgos))
		for j, a2 := range meshAlgos {
			names[i][j] = planeAlgoName(a1.name, a2.name)
		}
	}
	return names
}()

// SplitPlaneAlgorithm splits a "algo1+algo2" plane-schedule name back
// into its phase algorithms.
func SplitPlaneAlgorithm(name string) (algo1, algo2 string, ok bool) {
	i := strings.IndexByte(name, '+')
	if i < 0 {
		return "", "", false
	}
	return name[:i], name[i+1:], true
}

// SchedulePlanes builds and prices the two-phase per-plane schedule:
// algo1 runs along dimFirst on every plane's root line, then algo2
// along the orthogonal dimension on every plane line, all planes
// concurrently. Reductions execute the exact mirror (reversed rounds,
// swapped endpoints), as everywhere in this package; algorithm names
// always give the phases in broadcast order.
func SchedulePlanes(m *machine.Mesh2D, p Pattern, planes []Plane, dimFirst int, bytes int64, algo1, algo2 string) (*Schedule, error) {
	if p != Broadcast && p != Reduction {
		return nil, fmt.Errorf("collective: plane schedules cover broadcast/reduction, not %s", p)
	}
	if dimFirst != 0 && dimFirst != 1 {
		return nil, fmt.Errorf("collective: plane dimension %d out of range", dimFirst)
	}
	if len(planes) == 0 {
		return nil, fmt.Errorf("collective: empty plane set")
	}
	for _, pl := range planes {
		if !pl.valid(m) {
			return nil, fmt.Errorf("collective: plane %+v does not fit the %dx%d mesh", pl, m.P, m.Q)
		}
	}
	ls1, ls2 := planePhaseLines(m, planes, dimFirst)
	// Build both phases as broadcasts and mirror the concatenation for
	// reductions: reverse(b1 ++ b2) = reverse(b2) ++ reverse(b1), so
	// the phases swap order and each flows leaf-to-root.
	b1, err := buildLineRounds(m, ls1, bytes, algo1)
	if err != nil {
		return nil, err
	}
	b2, err := buildLineRounds(m, ls2, bytes, algo2)
	if err != nil {
		return nil, err
	}
	rounds := append(append([]Round{}, b1...), b2...)
	if p == Reduction {
		rounds = reverseRounds(rounds)
	}
	return newSchedule(m, planeAlgoName(algo1, algo2), p, planeScope(dimFirst), rounds), nil
}

// buildLineRounds builds the broadcast rounds of one named per-line
// algorithm over a line set (total-only algorithms are rejected: a
// plane phase is a line structure, not the 2-D rank space).
func buildLineRounds(m *machine.Mesh2D, ls [][]int, bytes int64, algo string) ([]Round, error) {
	for _, a := range meshAlgos {
		if a.name != algo {
			continue
		}
		if a.totalOnly {
			return nil, fmt.Errorf("collective: %s applies only to total collectives", algo)
		}
		return a.build(m, ls, bytes), nil
	}
	return nil, fmt.Errorf("collective: unknown mesh algorithm %q (have %v)", algo, MeshAlgorithms())
}

// SelectMeshPlanes selects the cheapest per-plane composition for the
// plane set: both dimension orders, each phase choosing its own
// algorithm. Because the phases execute back to back, their costs are
// separable and each phase is selected independently — the result is
// the exact minimum over every (order, algo1, algo2) combination.
// force pins both phases to one named line algorithm (non-applicable
// names select freely, as in SelectMesh). An empty or ill-fitting
// plane set selects nothing: the Choice has Cost -1.
func SelectMeshPlanes(m *machine.Mesh2D, p Pattern, planes []Plane, bytes int64, force string) Choice {
	if len(planes) == 0 {
		return Choice{Pattern: p, Cost: -1}
	}
	for _, pl := range planes {
		if !pl.valid(m) {
			return Choice{Pattern: p, Cost: -1}
		}
	}
	return buildPlanesTemplate(newEvaluator(m), m, p, planes, force).eval(m, bytes)
}

// SelectMeshMacro prices a macro-communication that spans the given
// physical grid dimensions (sorted, a subset of {0, 1}):
//
//   - no dims: the macro is machine-spanning — a total collective;
//   - one dim: concurrent per-line trees along that dimension compete
//     with the machine-spanning execution (a total collective
//     over-delivers but is a valid execution of any partial macro);
//   - both dims: the per-plane composition (one plane, the whole
//     machine) competes with the machine-spanning execution.
//
// The machine-spanning candidates stay in the pool, so a p ≥ 2 macro
// never prices above its old total-collective cost; ties prefer the
// per-line/per-plane schedule. Selection is deterministic.
func SelectMeshMacro(m *machine.Mesh2D, p Pattern, dims []int, bytes int64, force string) Choice {
	return NewTemplateBuilder(m).Macro(p, dims, force).Eval(m, bytes)
}

// MacroSchedule rebuilds the concrete schedule behind a SelectMeshMacro
// decision, for round-by-round dumps.
func MacroSchedule(m *machine.Mesh2D, p Pattern, dims []int, bytes int64, force string) (*Schedule, error) {
	ch := SelectMeshMacro(m, p, dims, bytes, force)
	switch ch.Scope {
	case "":
		return ScheduleMesh(m, p, 0, bytes, ch.Algorithm)
	case axisScope(0):
		return ScheduleMeshDim(m, p, 0, bytes, ch.Algorithm)
	case axisScope(1):
		return ScheduleMeshDim(m, p, 1, bytes, ch.Algorithm)
	default:
		algo1, algo2, ok := SplitPlaneAlgorithm(ch.Algorithm)
		if !ok {
			return nil, fmt.Errorf("collective: malformed plane algorithm %q", ch.Algorithm)
		}
		dimFirst := 0
		if ch.Scope == planeScope(1) {
			dimFirst = 1
		}
		return SchedulePlanes(m, p, []Plane{FullPlane(m)}, dimFirst, bytes, algo1, algo2)
	}
}
