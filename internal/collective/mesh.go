package collective

import (
	"fmt"

	"repro/internal/machine"
)

// A collective on the mesh spans a set of node lines: ordered
// processor sequences that each run the same tree concurrently, round
// by round. A total collective (the whole machine) is one line of all
// P·Q ranks in row-major order starting at the root; a partial
// axis-parallel collective — the paper's p=1 macro-communication
// along one grid dimension — is one line per orthogonal coordinate,
// rooted at coordinate 0. Partial collectives are where topology
// bites: broadcasting along the 64-long dimension of a 64×2 mesh is a
// very different machine problem than along the 2-long dimension of
// its 2×64 transpose.

// meshAlgo is one software broadcast/reduction algorithm over the
// mesh. shape returns its byte-symbolic candidate schedules for a
// line set, each streaming its rounds on demand (broadcast
// orientation; reductions run them mirrored — reversed rounds, swapped
// endpoints). totalOnly marks algorithms whose
// structure needs the full 2-D rank space and cannot run per line.
type meshAlgo struct {
	name      string
	totalOnly bool
	shape     func(m *machine.Mesh2D, ls [][]int) []shapeVariant
}

// meshAlgos is the registry, in tie-breaking order: on equal cost the
// earlier algorithm wins, so trees are preferred over the flat
// baseline when they cost the same.
var meshAlgos = []meshAlgo{
	{"bisection", false, shapeBisection},
	{"binomial", false, shapeBinomial},
	{"dim-tree", true, shapeDimTree},
	{"chain", false, shapeChain},
	{"scatter-allgather", false, shapeScatterAllgather},
	{"flat", false, shapeFlat},
}

// build materializes the algorithm's schedule at the payload
// (broadcast orientation): the chain segmentation is picked through
// the compiled broadcast template, as selection picks it, and only the
// winning shape variant is instantiated.
func (a meshAlgo) build(m *machine.Mesh2D, ls [][]int, bytes int64) []Round {
	vs := a.shape(m, ls)
	at := newEvaluator(m).compileAlgo(a.name, vs, Broadcast)
	i, _ := at.pick(m, bytes)
	if i < 0 {
		return nil
	}
	return instantiate(vs[i], bytes)
}

// MeshAlgorithms lists the mesh broadcast/reduction algorithm names
// in registry (tie-breaking) order.
func MeshAlgorithms() []string {
	names := make([]string, len(meshAlgos))
	for i, a := range meshAlgos {
		names[i] = a.name
	}
	return names
}

// totalLine is the single line of a machine-spanning collective:
// every rank in row-major order, rotated to start at the root.
func totalLine(m *machine.Mesh2D, root int) [][]int {
	P := m.Procs()
	line := make([]int, P)
	for i := range line {
		line[i] = (root + i) % P
	}
	return [][]int{line}
}

// dimLines are the lines of a partial collective along mesh dimension
// dim (0: within columns, along x; 1: within rows, along y), one per
// orthogonal coordinate, rooted at coordinate 0.
func dimLines(m *machine.Mesh2D, dim int) [][]int {
	var ls [][]int
	if dim == 0 {
		for y := 0; y < m.Q; y++ {
			line := make([]int, m.P)
			for x := 0; x < m.P; x++ {
				line[x] = m.Rank(x, y)
			}
			ls = append(ls, line)
		}
	} else {
		for x := 0; x < m.P; x++ {
			line := make([]int, m.Q)
			for y := 0; y < m.Q; y++ {
				line[y] = m.Rank(x, y)
			}
			ls = append(ls, line)
		}
	}
	return ls
}

// ScheduleMesh builds the named algorithm's schedule for a total
// broadcast or reduction on the mesh. Unknown names and the Shift
// pattern (see SelectPermute) return an error.
func ScheduleMesh(m *machine.Mesh2D, p Pattern, root int, bytes int64, algo string) (*Schedule, error) {
	return scheduleLines(m, p, totalLine(m, root), bytes, algo, "")
}

// ScheduleMeshDim builds the named algorithm's schedule for a partial
// collective along mesh dimension dim (concurrent per-line trees).
func ScheduleMeshDim(m *machine.Mesh2D, p Pattern, dim int, bytes int64, algo string) (*Schedule, error) {
	if dim != 0 && dim != 1 {
		return nil, fmt.Errorf("collective: mesh dimension %d out of range", dim)
	}
	return scheduleLines(m, p, dimLines(m, dim), bytes, algo, axisScope(dim))
}

// axisScope names the scope of a per-line collective along dim (0 or
// 1).
func axisScope(dim int) string {
	if dim == 0 {
		return "axis0"
	}
	return "axis1"
}

// scheduleLines builds and prices the named algorithm's schedule over
// a line set; scope "" marks a machine-spanning total collective
// (the only place the total-only algorithms may run).
func scheduleLines(m *machine.Mesh2D, p Pattern, ls [][]int, bytes int64, algo, scope string) (*Schedule, error) {
	if p != Broadcast && p != Reduction {
		return nil, fmt.Errorf("collective: mesh schedules cover broadcast/reduction, not %s", p)
	}
	for _, a := range meshAlgos {
		if a.name != algo {
			continue
		}
		if a.totalOnly && scope != "" {
			return nil, fmt.Errorf("collective: %s applies only to total collectives", algo)
		}
		rounds := a.build(m, ls, bytes)
		if p == Reduction {
			rounds = reverseRounds(rounds)
		}
		return newSchedule(m, algo, p, scope, rounds), nil
	}
	return nil, fmt.Errorf("collective: unknown mesh algorithm %q (have %v)", algo, MeshAlgorithms())
}

// SelectMesh evaluates every mesh algorithm for a total collective
// against the concrete mesh instance and returns the cheapest. force
// pins the selection to one named algorithm; a force that names no
// applicable mesh algorithm (or "") selects freely. Selection is
// deterministic: equal costs resolve to the earlier registry entry.
// Like every Select*, it compiles the selection's template and
// evaluates it once.
func SelectMesh(m *machine.Mesh2D, p Pattern, root int, bytes int64, force string) Choice {
	ch, _, _ := buildLineTemplate(newEvaluator(m), m, p, totalLine(m, root), force, "").evalWinner(m, bytes)
	return ch
}

// SelectMeshDim selects for a partial collective along mesh dimension
// dim: every line runs its tree concurrently, and the lines' shape —
// their length and how their hops map onto the grid — is what the
// algorithms compete on. Out-of-range dims select the total
// collective rooted at rank 0.
func SelectMeshDim(m *machine.Mesh2D, p Pattern, dim int, bytes int64, force string) Choice {
	return NewTemplateBuilder(m).Dim(p, dim, force).Eval(m, bytes)
}

// reverseRounds mirrors a broadcast schedule into a reduction: rounds
// run in reverse order and every message flows leaf-to-root.
func reverseRounds(rounds []Round) []Round {
	out := make([]Round, 0, len(rounds))
	for i := len(rounds) - 1; i >= 0; i-- {
		r := make(Round, len(rounds[i]))
		for j, msg := range rounds[i] {
			r[j] = machine.Message{Src: msg.Dst, Dst: msg.Src, Bytes: msg.Bytes}
		}
		out = append(out, r)
	}
	return out
}

// maxLineLen returns the longest line of the set (lines of one set
// have equal length today, but the builders only assume ≥1).
func maxLineLen(ls [][]int) int {
	n := 0
	for _, l := range ls {
		if len(l) > n {
			n = len(l)
		}
	}
	return n
}

// chainSegments are the pipeline depths the chain algorithm
// considers; the cheapest segmentation for the concrete machine and
// payload wins. More segments cut the per-hop serialization of large
// payloads but pay more startups.
var chainSegments = []int{1, 2, 4, 8, 16}
