package scenarios

import (
	"math/rand"
	"testing"
)

// TestGenerateDeterministic: the same config yields the same suite,
// name for name and key for key.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 42})
	b := Generate(Config{Seed: 42})
	if len(a) != len(b) {
		t.Fatalf("suite sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("scenario %d: name %q vs %q", i, a[i].Name, b[i].Name)
		}
		if a[i].PlanKey() != b[i].PlanKey() {
			t.Fatalf("scenario %d (%s): plan keys differ", i, a[i].Name)
		}
	}
	c := Generate(Config{Seed: 43})
	diff := false
	for i := range a {
		if i < len(c) && a[i].PlanKey() != c[i].PlanKey() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("seeds 42 and 43 generated identical suites")
	}
}

// TestDefaultSuiteSize: the defaults produce the ≥100-scenario batch
// the benchmarks rely on.
func TestDefaultSuiteSize(t *testing.T) {
	s := Generate(Config{})
	if len(s) != 100 {
		t.Fatalf("default suite has %d scenarios, want 100", len(s))
	}
}

// TestRandomNestsValid: generated nests always satisfy the Program
// invariants (RandomNest panics otherwise) and have the advertised
// shape bounds.
func TestRandomNestsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := RandomNest(rng, "t")
		if len(p.Arrays) < 2 || len(p.Arrays) > 3 {
			t.Fatalf("nest %d: %d arrays", i, len(p.Arrays))
		}
		if len(p.Statements) < 1 || len(p.Statements) > 2 {
			t.Fatalf("nest %d: %d statements", i, len(p.Statements))
		}
		for _, s := range p.Statements {
			if s.Depth < 2 || s.Depth > 3 {
				t.Fatalf("nest %d: statement depth %d", i, s.Depth)
			}
		}
	}
}

// TestPlanKeySharing: scenarios that differ only in machine,
// distribution or size share a plan key; different nests do not.
func TestPlanKeySharing(t *testing.T) {
	s := Generate(Config{Seed: 5, Random: 1, NoExamples: true})
	if len(s) < 2 {
		t.Fatal("need at least two scenarios")
	}
	if s[0].PlanKey() != s[1].PlanKey() {
		t.Error("machine variants of the same nest have different plan keys")
	}
	other := Generate(Config{Seed: 6, Random: 1, NoExamples: true})
	if s[0].PlanKey() == other[0].PlanKey() {
		t.Error("different random nests share a plan key")
	}
}

// TestDeepNestsValid: deep nests respect the advertised depth range
// and still validate.
func TestDeepNestsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		p := RandomDeepNest(rng, "d")
		for _, s := range p.Statements {
			if s.Depth < 4 || s.Depth > 5 {
				t.Fatalf("deep nest %d: statement depth %d, want 4-5", i, s.Depth)
			}
		}
	}
}

// TestScaledSuite: Deep + Skew + m=3 extend the suite with deep nests
// crossed against skewed grids, deterministically.
func TestScaledSuite(t *testing.T) {
	cfg := Config{Seed: 11, Random: 1, Deep: 3, Skew: true, M: 3, NoExamples: true}
	s := Generate(cfg)
	// (1 random + 3 deep) nests × (4 default + 3 skewed) machines.
	if len(s) != 4*7 {
		t.Fatalf("scaled suite has %d scenarios, want %d", len(s), 4*7)
	}
	deep, skewed := 0, 0
	for _, sc := range s {
		if sc.M != 3 {
			t.Fatalf("%s: M = %d, want 3", sc.Name, sc.M)
		}
		if len(sc.Name) >= 4 && sc.Name[:4] == "deep" {
			deep++
		}
		switch sc.Machine.String() {
		case "mesh2x16", "mesh16x2", "fattree128":
			skewed++
		}
	}
	if deep != 3*7 {
		t.Errorf("%d deep scenarios, want %d", deep, 3*7)
	}
	if skewed != 4*3 {
		t.Errorf("%d skewed-machine scenarios, want %d", skewed, 4*3)
	}
	again := Generate(cfg)
	for i := range s {
		if s[i].Name != again[i].Name || s[i].PlanKey() != again[i].PlanKey() {
			t.Fatalf("scaled suite not deterministic at %d", i)
		}
	}
}

// TestSeedStability: generalizing the nest generator must not change
// what historical seeds produce (disk-store keys depend on it).
func TestSeedStability(t *testing.T) {
	s := Generate(Config{Seed: 7, Random: 2, NoExamples: true})
	deep := Generate(Config{Seed: 7, Random: 2, Deep: 1, NoExamples: true})
	for i := range s {
		if s[i].PlanKey() != deep[i].PlanKey() {
			t.Fatalf("adding deep nests changed random nest %d (%s)", i, s[i].Name)
		}
	}
}

// TestParseMachineSpec: round-trips and rejections.
func TestParseMachineSpec(t *testing.T) {
	for _, spec := range []MachineSpec{
		{Kind: FatTree, P: 32},
		{Kind: FatTree, P: 128},
		{Kind: Mesh, P: 4, Q: 4},
		{Kind: Mesh, P: 16, Q: 2},
		{Kind: Mesh, P: 128, Q: 128},
		{Kind: FatTree, P: MaxMachineNodes},
	} {
		got, err := ParseMachineSpec(spec.String())
		if err != nil || got != spec {
			t.Errorf("ParseMachineSpec(%q) = %v, %v", spec.String(), got, err)
		}
	}
	for _, bad := range []string{"", "torus4", "mesh4", "meshx4", "fattree", "fattree-2", "mesh0x4", "fattree32x",
		// More than MaxMachineNodes nodes, including products that would
		// wrap int64.
		"mesh129x128", "fattree16385", "mesh100000x100000", "mesh4294967296x4294967296"} {
		if _, err := ParseMachineSpec(bad); err == nil {
			t.Errorf("ParseMachineSpec(%q) accepted", bad)
		}
	}
}

// TestMachineSpec: string forms and processor counts.
func TestMachineSpec(t *testing.T) {
	ft := MachineSpec{Kind: FatTree, P: 32}
	if ft.String() != "fattree32" || ft.Procs() != 32 {
		t.Errorf("fat tree spec: %s/%d", ft, ft.Procs())
	}
	m := MachineSpec{Kind: Mesh, P: 4, Q: 8}
	if m.String() != "mesh4x8" || m.Procs() != 32 {
		t.Errorf("mesh spec: %s/%d", m, m.Procs())
	}
}

// TestDistributionCoverage: the rotation must pair every machine
// with every distribution family and every size across the default
// suite (a naive running counter aliases with the machine count and
// pins each machine to a single distribution).
func TestDistributionCoverage(t *testing.T) {
	s := Generate(Config{Seed: 1})
	seen := map[string]map[string]bool{}
	sizes := map[string]map[int]bool{}
	for _, sc := range s {
		m := sc.Machine.String()
		if seen[m] == nil {
			seen[m] = map[string]bool{}
			sizes[m] = map[int]bool{}
		}
		seen[m][sc.Dist.Name()] = true
		sizes[m][sc.N] = true
	}
	for m, ds := range seen {
		if len(ds) != len(dists) {
			t.Errorf("machine %s sees %d distribution families, want %d: %v", m, len(ds), len(dists), ds)
		}
		if len(sizes[m]) < 2 {
			t.Errorf("machine %s sees only sizes %v", m, sizes[m])
		}
	}
}

// TestParseMachineSpecAlgo: the extended grammar accepts a pinned
// collective algorithm and rejects unknown names.
func TestParseMachineSpecAlgo(t *testing.T) {
	for _, spec := range []MachineSpec{
		{Kind: Mesh, P: 8, Q: 8, Algo: "flat"},
		{Kind: Mesh, P: 64, Q: 2, Algo: "bisection"},
		{Kind: FatTree, P: 32, Algo: "binomial-sw"},
	} {
		got, err := ParseMachineSpec(spec.String())
		if err != nil || got != spec {
			t.Errorf("ParseMachineSpec(%q) = %v, %v", spec.String(), got, err)
		}
	}
	if s := (MachineSpec{Kind: Mesh, P: 8, Q: 8, Algo: "flat"}).String(); s != "mesh8x8:flat" {
		t.Errorf("pinned spec renders as %q", s)
	}
	for _, bad := range []string{"mesh8x8:", "mesh8x8:bogus", "fattree32:Binomial", ":flat", "mesh8x8:flat:flat"} {
		if _, err := ParseMachineSpec(bad); err == nil {
			t.Errorf("ParseMachineSpec(%q) accepted", bad)
		}
	}
}

// TestBigMeshes: the big-mesh axis appends the three tree-shape
// machines without disturbing the rest of the suite.
func TestBigMeshes(t *testing.T) {
	cfg := Config{Seed: 11, Random: 2, BigMeshes: true, NoExamples: true}
	s := Generate(cfg)
	// 2 nests × (4 default + 3 big) machines.
	if len(s) != 2*7 {
		t.Fatalf("big-mesh suite has %d scenarios, want %d", len(s), 2*7)
	}
	big := map[string]int{}
	for _, sc := range s {
		switch sc.Machine.String() {
		case "mesh64x2", "mesh2x64", "mesh16x16":
			big[sc.Machine.String()]++
		}
	}
	for _, name := range []string{"mesh64x2", "mesh2x64", "mesh16x16"} {
		if big[name] != 2 {
			t.Errorf("%s appears %d times, want 2", name, big[name])
		}
	}
}
