// Package scenarios generates diverse optimization workloads for the
// batch engine: every built-in example nest of package affine
// (matmul, Gauss, Jacobi/ADI-style sweeps, the paper examples) plus
// parameterized random affine nests, each crossed with machine models
// (CM-5-like fat trees, Paragon-like meshes), data distributions and
// problem sizes. Generation is fully deterministic in Config.Seed, so
// a suite can be regenerated bit-identically for cache-consistency
// and concurrency-determinism tests.
package scenarios

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/affine"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/intmat"
)

// MachineKind selects one of the two machine models of the paper's
// evaluation.
type MachineKind int

const (
	// FatTree is the CM-5-like model (machine.FatTree).
	FatTree MachineKind = iota
	// Mesh is the Paragon-like 2-D mesh model (machine.Mesh2D).
	Mesh
)

// MachineSpec names a concrete machine configuration: P processors
// for a fat tree, a P×Q grid for a mesh. Algo optionally pins the
// collective-algorithm selection on this machine to one named
// algorithm (see internal/collective), the ablation knob of the
// extended spec grammar: "mesh8x8:flat" prices every residual
// macro-communication with the flat root-to-all schedule at its
// scope — machine-spanning for total macros (the seed cost model,
// exactly), one root-to-all loop per line or per plane phase for
// partial ones — and "fattree32:binomial-sw" forbids the hardware
// combining network.
type MachineSpec struct {
	Kind MachineKind
	P, Q int
	Algo string
}

func (s MachineSpec) String() string {
	var buf [48]byte
	b := buf[:0]
	if s.Kind == Mesh {
		b = strconv.AppendInt(append(b, "mesh"...), int64(s.P), 10)
		b = strconv.AppendInt(append(b, 'x'), int64(s.Q), 10)
	} else {
		b = strconv.AppendInt(append(b, "fattree"...), int64(s.P), 10)
	}
	if s.Algo != "" {
		b = append(append(b, ':'), s.Algo...)
	}
	return string(b)
}

// MaxMachineNodes bounds one machine configuration a request may
// name. Template compilation walks every grid line of a machine, so a
// runaway extent must be rejected when the spec is parsed.
const MaxMachineNodes = 1 << 14

// ParseMachineSpec parses the String form back into a spec:
// "fattreeP" or "meshPxQ" with positive extents written as canonical
// decimals (no sign, no leading zero) and at most MaxMachineNodes
// nodes, optionally followed by ":algorithm" to pin the collective
// algorithm. Every accepted spec renders back to exactly its input.
func ParseMachineSpec(s string) (MachineSpec, error) {
	spec, err := parseMachineSpec(s)
	if err != nil {
		return MachineSpec{}, err
	}
	// Check each extent first so the product cannot wrap.
	if spec.P > MaxMachineNodes || spec.Q > MaxMachineNodes || spec.Procs() > MaxMachineNodes {
		return MachineSpec{}, fmt.Errorf("scenarios: machine %q has more than %d nodes", s, MaxMachineNodes)
	}
	return spec, nil
}

// parseMachineSpec parses the spec grammar, whatever the size.
func parseMachineSpec(s string) (MachineSpec, error) {
	base, algo := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		base, algo = s[:i], s[i+1:]
		if !collective.KnownAlgorithm(algo) {
			return MachineSpec{}, fmt.Errorf("scenarios: unknown collective algorithm %q in machine spec %q (have %v)",
				algo, s, collective.AllAlgorithms())
		}
	}
	if rest, ok := strings.CutPrefix(base, "fattree"); ok {
		if p, ok := parseExtent(rest); ok {
			return MachineSpec{Kind: FatTree, P: p, Algo: algo}, nil
		}
	} else if rest, ok := strings.CutPrefix(base, "mesh"); ok {
		ps, qs, _ := strings.Cut(rest, "x")
		p, okP := parseExtent(ps)
		q, okQ := parseExtent(qs)
		if okP && okQ {
			return MachineSpec{Kind: Mesh, P: p, Q: q, Algo: algo}, nil
		}
	}
	return MachineSpec{}, fmt.Errorf(`scenarios: bad machine spec %q (want "fattreeP" or "meshPxQ", optionally ":algorithm")`, s)
}

// parseExtent parses one machine extent: a canonical positive decimal
// — digits only, no leading zero — that fits an int.
func parseExtent(s string) (int, bool) {
	if s == "" || s[0] < '1' || s[0] > '9' {
		return 0, false
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// Procs returns the processor count of the machine.
func (s MachineSpec) Procs() int {
	if s.Kind == Mesh {
		return s.P * s.Q
	}
	return s.P
}

// Scenario is one unit of batch work: optimize Program for an
// M-dimensional virtual grid under Opts, then cost the resulting
// plans on Machine with the given distribution, virtual grid extent N
// (per dimension) and per-element payload.
type Scenario struct {
	Name      string
	Program   *affine.Program
	M         int
	Opts      core.Options
	Machine   MachineSpec
	Dist      distrib.Dist2D
	N         int
	ElemBytes int64
}

// PlanKey is the canonical identity of the scenario's *optimization*
// input (program structure, target dimension, heuristic options):
// "m=%d|opts=%+v|" followed by the program text. Scenarios that
// differ only in machine, distribution or size share a PlanKey, which
// is exactly what lets the engine compute the expensive heuristic
// once per distinct nest. Program.String renders every array, depth,
// schedule and access matrix, so equal keys imply equal optimization
// problems.
//
// The key is memoized on the program (affine.Program.PrefixedString):
// keying a long-lived program again under the same m and options
// renders only the short prefix, into a stack buffer, and returns the
// same string.
func (sc *Scenario) PlanKey() string {
	var buf [256]byte
	return sc.Program.PrefixedString(appendPlanPrefix(buf[:0], sc.M, &sc.Opts))
}

// appendPlanPrefix appends fmt's "m=%d|opts=%+v|" rendering of m and
// o to dst, field for field (TestPlanPrefixMatchesFmt holds it to
// fmt).
func appendPlanPrefix(dst []byte, m int, o *core.Options) []byte {
	dst = strconv.AppendInt(append(dst, "m="...), int64(m), 10)
	a := &o.Alignment
	dst = strconv.AppendBool(append(dst, "|opts={Alignment:{UnitWeights:"...), a.UnitWeights)
	dst = strconv.AppendBool(append(dst, " NoAugmentation:"...), a.NoAugmentation)
	dst = strconv.AppendBool(append(dst, " NoDeficientRank:"...), a.NoDeficientRank)
	dst = strconv.AppendInt(append(dst, " Seed:"...), a.Seed, 10)
	dst = strconv.AppendInt(append(dst, "} MaxFactors:"...), int64(o.MaxFactors), 10)
	dst = strconv.AppendInt(append(dst, " SimilarityBound:"...), o.SimilarityBound, 10)
	dst = strconv.AppendBool(append(dst, " NoMacro:"...), o.NoMacro)
	dst = strconv.AppendBool(append(dst, " NoDecomposition:"...), o.NoDecomposition)
	return append(dst, "}|"...)
}

// Config parameterizes suite generation. The zero value of every
// field selects a sensible default.
type Config struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Random is the number of random affine nests to generate in
	// addition to the built-in examples (default 15).
	Random int
	// Deep is the number of additional deep random nests (depth 4–5,
	// see RandomDeepNest) to generate; default 0. Deep nests exercise
	// the m = 3 target-dimension path (the Cray T3D case the paper
	// sketches) and give the disk store large plans to persist.
	Deep int
	// Skew appends skewed machine grids (2×16 and 16×2 meshes, a
	// 128-node fat tree) to the machine list, so suites also cover
	// far-from-square processor arrangements.
	Skew bool
	// BigMeshes appends the large mesh shapes where collective tree
	// shape matters — a tall 64×2, a flat 2×64 and a square 16×16 —
	// so suites exercise the topology-aware algorithm selection.
	BigMeshes bool
	// NoExamples drops the built-in example nests from the suite.
	NoExamples bool
	// Machines lists the machine configurations to cross programs
	// with (default: fat trees of 32 and 64 nodes, 4×4 and 8×8
	// meshes).
	Machines []MachineSpec
	// Sizes lists virtual grid extents (default 16, 32).
	Sizes []int
	// ElemBytes is the payload per virtual grid point (default 64).
	ElemBytes int64
	// M is the target grid dimension (default 2).
	M int
	// Opts are the heuristic options applied to every scenario (zero
	// value: the paper's configuration).
	Opts core.Options
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Random == 0 {
		c.Random = 15
	}
	if len(c.Machines) == 0 {
		c.Machines = []MachineSpec{
			{Kind: FatTree, P: 32},
			{Kind: FatTree, P: 64},
			{Kind: Mesh, P: 4, Q: 4},
			{Kind: Mesh, P: 8, Q: 8},
		}
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{16, 32}
	}
	if c.Skew {
		c.Machines = append(append([]MachineSpec{}, c.Machines...),
			MachineSpec{Kind: Mesh, P: 2, Q: 16},
			MachineSpec{Kind: Mesh, P: 16, Q: 2},
			MachineSpec{Kind: FatTree, P: 128},
		)
	}
	if c.BigMeshes {
		c.Machines = append(append([]MachineSpec{}, c.Machines...),
			MachineSpec{Kind: Mesh, P: 64, Q: 2},
			MachineSpec{Kind: Mesh, P: 2, Q: 64},
			MachineSpec{Kind: Mesh, P: 16, Q: 16},
		)
	}
	if c.ElemBytes == 0 {
		c.ElemBytes = 64
	}
	if c.M == 0 {
		c.M = 2
	}
	return c
}

// dists is the distribution rotation applied across scenarios: the
// four distribution families of the paper's Figure 8.
var dists = []distrib.Dist2D{
	{D0: distrib.Block{}, D1: distrib.Block{}},
	{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}},
	{D0: distrib.BlockCyclic{B: 4}, D1: distrib.Block{}},
	{D0: distrib.Grouped{K: 2}, D1: distrib.Block{}},
}

// Generate returns the scenario suite of cfg: (examples + random
// nests) × machines, with distributions and sizes rotated so the
// suite covers every combination family without a full cross
// product. The result is deterministic in cfg.
func Generate(cfg Config) []Scenario {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var progs []*affine.Program
	if !cfg.NoExamples {
		progs = append(progs, affine.AllExamples()...)
	}
	for i := 0; i < cfg.Random; i++ {
		progs = append(progs, RandomNest(rng, fmt.Sprintf("rand%03d", i)))
	}
	for i := 0; i < cfg.Deep; i++ {
		progs = append(progs, RandomDeepNest(rng, fmt.Sprintf("deep%03d", i)))
	}

	var out []Scenario
	for pi, p := range progs {
		for mi, ms := range cfg.Machines {
			// Rotate distributions and sizes by program+machine index
			// so every machine sees every distribution family and
			// every size across the suite. (A single running counter
			// would alias: counter mod len(machines) equals the
			// machine index, pinning each machine to one slot.)
			d := dists[(pi+mi)%len(dists)]
			n := cfg.Sizes[(pi+mi)%len(cfg.Sizes)]
			out = append(out, Scenario{
				Name:      fmt.Sprintf("%s/%s/%s/n%d", p.Name, ms, d.Name(), n),
				Program:   p,
				M:         cfg.M,
				Opts:      cfg.Opts,
				Machine:   ms,
				Dist:      d,
				N:         n,
				ElemBytes: cfg.ElemBytes,
			})
		}
	}
	return out
}

// RandomNest builds a random valid affine nest: 1–2 statements of
// depth 2–3 over 2–3 arrays, each statement with one full-rank write
// (sometimes a reduction) and 1–3 reads through small random affine
// matrices. Offsets are small constants; an outermost sequential loop
// is added occasionally. The result always passes Validate.
func RandomNest(rng *rand.Rand, name string) *affine.Program {
	return randomNest(rng, name, 2, 3)
}

// RandomDeepNest is RandomNest scaled up: statements of depth 4–5,
// the deeper iteration spaces the ROADMAP asks for. Deep nests pair
// with target dimension m = 3 to exercise the elementary-N
// decomposition path.
func RandomDeepNest(rng *rand.Rand, name string) *affine.Program {
	return randomNest(rng, name, 4, 5)
}

// randomNest draws a nest with statement depths in [minDepth,
// maxDepth]. For the historical 2–3 range it consumes the rng in
// exactly the original RandomNest order, so seeded suites are stable
// across this generalization.
func randomNest(rng *rand.Rand, name string, minDepth, maxDepth int) *affine.Program {
	idxNames := []string{"i", "j", "k", "l", "m", "n", "o"}
	p := &affine.Program{Name: name}
	nArr := 2 + rng.Intn(2)
	for a := 0; a < nArr; a++ {
		dim := 2 + rng.Intn(2)
		p.AddArray(fmt.Sprintf("%s_a%d", name, a), dim)
	}
	nStmt := 1 + rng.Intn(2)
	for s := 0; s < nStmt; s++ {
		depth := minDepth + rng.Intn(maxDepth-minDepth+1)
		idx := idxNames[:depth]
		st := p.NewStatement(fmt.Sprintf("%s_S%d", name, s), idx...)

		// one write (or reduction) through a full-rank access
		wArr := p.Arrays[rng.Intn(len(p.Arrays))]
		wf := randAccess(rng, wArr.Dim, depth, true)
		if rng.Intn(4) == 0 {
			st.Reduce(wArr.Name, wf, randOffsets(rng, wArr.Dim)...)
		} else {
			st.Write(wArr.Name, wf, randOffsets(rng, wArr.Dim)...)
		}

		nReads := 1 + rng.Intn(3)
		for r := 0; r < nReads; r++ {
			rArr := p.Arrays[rng.Intn(len(p.Arrays))]
			rf := randAccess(rng, rArr.Dim, depth, rng.Intn(3) > 0)
			st.Read(rArr.Name, rf, randOffsets(rng, rArr.Dim)...)
		}
		if depth >= 3 && rng.Intn(3) == 0 {
			st.Seq(0)
		}
	}
	if err := p.Validate(); err != nil {
		// randAccess and randOffsets respect every structural
		// invariant, so this is unreachable; fail loudly if the
		// generator regresses.
		panic("scenarios: generated invalid nest: " + err.Error())
	}
	return p
}

// randAccess returns a random dim×depth access matrix with entries in
// [-2, 2]; when fullRank is set it retries until rank min(dim, depth)
// so the access participates in the access graph.
func randAccess(rng *rand.Rand, dim, depth int, fullRank bool) *intmat.Mat {
	want := dim
	if depth < dim {
		want = depth
	}
	for {
		f := intmat.RandMat(rng, dim, depth, 2)
		if !fullRank || f.Rank() == want {
			return f
		}
	}
}

func randOffsets(rng *rand.Rand, dim int) []int64 {
	c := make([]int64, dim)
	for i := range c {
		c[i] = int64(rng.Intn(5) - 2)
	}
	return c
}
