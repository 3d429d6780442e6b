package scenarios_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/affine"
	"repro/internal/alignment"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/nestlang"
	"repro/internal/scenarios"
	"repro/internal/server"
)

// planKeyEntry is one pinned plan key: the store keeps a plan under
// plans/<sha256(key)> and the cluster ring places it by the key, so
// the digest is the part of the key that must never move.
type planKeyEntry struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// goldenNests are DSL nests whose keys are pinned next to the
// built-in examples: negative and multi-digit coefficients, int64
// coefficients past 2^32, a sequential schedule, a reduction and a
// multi-loop nest.
var goldenNests = []struct{ name, src string }{
	{"matmul", `nest matmul {
  array a[2]
  array b[2]
  array c[2]
  loop (i, j, k) {
    S: c[i, j] += a[i, k]
  }
}`},
	{"skew", `nest t {
  array a[2]
  array r[1]
  loop (i, j) {
    S: r[i] = a[5*i - 2*j + 3, -7*i + 3*j - 1]
  }
}`},
	{"gauss", `nest gauss {
  array a[2]
  loop (k, i, j) seq(k) {
    S: a[i, j] = g(a[i, j], a[i, k], a[k, j])
  }
}`},
	{"multi", `nest multi {
  array a[2]
  array b[2]
  loop (i, j) {
    S1: b[i, j] = a[j, i];
  }
  loop (i, j, k) {
    S2: a[i, k] = b[i, j]
    S3: b[j, k] = a[i, j]
  }
}`},
	{"big2", `nest big2 {
  array a[2]
  array b[2]
  array c[2]
  loop (i, j) {
    S: c[i, j] += a[4000000000*i + 3*j, 7*i + 5000000000*j]
    T: b[j, i] += c[2*i + 3000000001*j, i]
    U: a[i, j] += b[3000000007*i + 5*j, 11*i + 4000000009*j]
  }
}`},
}

// goldenOpts are the heuristic options the examples are keyed under:
// the four wire-reachable ablation combinations, plus settings of
// every other option field so the whole rendered options struct is
// pinned.
var goldenOpts = []struct {
	name string
	opts core.Options
}{
	{"paper", core.Options{}},
	{"nomacro", core.Options{NoMacro: true}},
	{"nodecomp", core.Options{NoDecomposition: true}},
	{"nomacro-nodecomp", core.Options{NoMacro: true, NoDecomposition: true}},
	{"tuned", core.Options{
		Alignment:       alignment.Options{UnitWeights: true, NoAugmentation: true, NoDeficientRank: true, Seed: -12},
		MaxFactors:      6,
		SimilarityBound: 3,
	}},
}

// planKeyCases lists every pinned key: the big-sweep baseline suite
// (regenerated from the spec recorded in baselines/big-sweep.json),
// the ten built-in examples at m ∈ {2, 3} under goldenOpts, and the
// goldenNests at m ∈ {2, 3}.
func planKeyCases(t *testing.T) []planKeyEntry {
	raw, err := os.ReadFile("../../baselines/big-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Spec *api.BatchSpec `json:"spec"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil || snap.Spec == nil {
		t.Fatalf("big-sweep baseline carries no spec (err %v)", err)
	}
	var out []planKeyEntry
	add := func(name string, sc *scenarios.Scenario) {
		sum := sha256.Sum256([]byte(sc.PlanKey()))
		out = append(out, planKeyEntry{Name: name, SHA256: hex.EncodeToString(sum[:])})
	}
	suite := scenarios.Generate(server.SpecConfig(*snap.Spec))
	for i := range suite {
		add("big-sweep/"+suite[i].Name, &suite[i])
	}
	for _, p := range affine.AllExamples() {
		for _, m := range []int{2, 3} {
			for _, o := range goldenOpts {
				add(fmt.Sprintf("example/%s/m%d/%s", p.Name, m, o.name),
					&scenarios.Scenario{Program: p, M: m, Opts: o.opts})
			}
		}
	}
	for _, n := range goldenNests {
		p, err := nestlang.Parse(n.src)
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		for _, m := range []int{2, 3} {
			add(fmt.Sprintf("nest/%s/m%d", n.name, m), &scenarios.Scenario{Program: p, M: m})
		}
	}
	return out
}

// TestPlanKeyGolden pins the sha256 of every plan key in
// planKeyCases bit for bit. A moved key strands every persisted plan
// (store paths are plans/<sha256(key)>) and reshuffles cluster
// ownership, so testdata/plankey_golden.json is re-recorded only for
// a deliberate change of plan identity, announced in the change log.
func TestPlanKeyGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/plankey_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []planKeyEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := planKeyCases(t)
	if len(got) != len(want) {
		t.Fatalf("%d plan keys, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("plan key %d moved:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
