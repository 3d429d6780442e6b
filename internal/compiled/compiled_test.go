package compiled_test

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/compiled"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/scenarios"
)

// TestPricerMatchesSelect is a cache-keying test: every pricer entry
// point, served from a template cached under its key and compiled
// through the geometry's shared builder, must equal a fresh one-shot
// collective.Select* over the same structure. Two structures that
// collided on one key would get each other's template and fail here.
// Whether the selection itself is right is checked against a
// materialize-and-simulate reference in package collective. The nil
// pricer must fall back cleanly.
func TestPricerMatchesSelect(t *testing.T) {
	meshes := [][2]int{{4, 4}, {8, 8}, {16, 2}, {3, 5}, {1, 1}}
	payloads := []int64{1, 64, 4096, 1 << 20}
	var nilPricer *compiled.Pricer
	for _, prName := range []string{"pricer", "nil"} {
		pr := compiled.NewPricer()
		if prName == "nil" {
			pr = nilPricer
		}
		for _, sh := range meshes {
			m := machine.DefaultMesh(sh[0], sh[1])
			for _, p := range []collective.Pattern{collective.Broadcast, collective.Reduction} {
				for _, force := range []string{"", "flat", "chain"} {
					for _, b := range payloads {
						ctxt := fmt.Sprintf("%s %dx%d %s force=%q bytes=%d", prName, sh[0], sh[1], p, force, b)
						if want, got := collective.SelectMesh(m, p, 0, b, force), pr.SelectMesh(m, p, b, force); want != got {
							t.Fatalf("%s total: select %+v != pricer %+v", ctxt, want, got)
						}
						for dim := 0; dim < 2; dim++ {
							if want, got := collective.SelectMeshDim(m, p, dim, b, force), pr.SelectMeshDim(m, p, dim, b, force); want != got {
								t.Fatalf("%s dim%d: select %+v != pricer %+v", ctxt, dim, want, got)
							}
						}
						for _, dims := range [][]int{nil, {0}, {1}, {0, 1}, {0, 2}, {2, 3}} {
							if want, got := collective.SelectMeshMacro(m, p, dims, b, force), pr.SelectMeshMacro(m, p, dims, b, force); want != got {
								t.Fatalf("%s macro%v: select %+v != pricer %+v", ctxt, dims, want, got)
							}
						}
					}
				}
			}
		}
		if pr != nil {
			st := pr.Stats()
			if st.Templates == 0 || st.Evals == 0 {
				t.Fatalf("pricer stats did not move: %+v", st)
			}
			if st.TemplateHits == 0 || st.TemplateMisses != uint64(st.Templates) {
				t.Fatalf("template cache stats inconsistent: %+v", st)
			}
		}
	}
}

// bigSweepConfig is the configuration behind baselines/big-sweep.json
// — the widest suite the repo pins byte-identically in CI.
func bigSweepConfig() scenarios.Config {
	return scenarios.Config{Seed: 42, Random: 6, Deep: 4, Skew: true, BigMeshes: true, M: 3}
}

// TestCompiledEvalMatchesEngine is the tentpole equivalence check:
// compiling each distinct nest once and evaluating the artifact at
// each scenario's machine point must reproduce the engine's
// uncompiled batch results bit-identically — model time to the last
// float bit, class counts, vectorizable counts and collective
// summaries — across the full big-sweep suite.
func TestCompiledEvalMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("big-sweep equivalence is not a -short test")
	}
	suite := scenarios.Generate(bigSweepConfig())
	batch := engine.Run(suite, engine.Options{})

	arts := map[string]*compiled.Artifact{}
	pr := compiled.NewPricer()
	for i := range suite {
		sc := &suite[i]
		art, ok := arts[sc.PlanKey()]
		if !ok {
			art = compiled.Compile(sc)
			arts[sc.PlanKey()] = art
		}
		res := batch.Results[i]
		if (res.Err != "") != (art.Err != "") {
			t.Fatalf("%s: engine err %q vs artifact err %q", sc.Name, res.Err, art.Err)
		}
		if art.Err != "" {
			continue
		}
		pt := art.Eval(pr, sc.Machine, sc.Dist, sc.N, sc.ElemBytes)
		if pt.ModelTime != res.ModelTime || pt.Classes != res.Classes ||
			pt.Vectorizable != res.Vectorizable || pt.Collectives != res.Collectives {
			t.Fatalf("%s: compiled eval diverges\n  engine:   t=%v classes=%v vec=%d coll=%q\n  compiled: t=%v classes=%v vec=%d coll=%q",
				sc.Name, res.ModelTime, res.Classes, res.Vectorizable, res.Collectives,
				pt.ModelTime, pt.Classes, pt.Vectorizable, pt.Collectives)
		}
	}
	if len(arts) >= len(suite) {
		t.Fatalf("expected nest sharing across machine points: %d artifacts for %d scenarios", len(arts), len(suite))
	}
}

// TestParseGrid covers the lattice grammar: expansions, defaults, and
// rejections.
func TestParseGrid(t *testing.T) {
	g, err := compiled.ParseGrid("mesh{4..64}x{2..64}:bytes=1k..16M")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Machines) != 5*6 || len(g.Bytes) != 15 {
		t.Fatalf("mesh{4..64}x{2..64}:bytes=1k..16M expanded to %d machines × %d payloads", len(g.Machines), len(g.Bytes))
	}
	if g.Machines[0] != (scenarios.MachineSpec{Kind: scenarios.Mesh, P: 4, Q: 2}) {
		t.Fatalf("first machine = %v", g.Machines[0])
	}
	if g.Bytes[0] != 1024 || g.Bytes[len(g.Bytes)-1] != 16<<20 {
		t.Fatalf("bytes endpoints = %d..%d", g.Bytes[0], g.Bytes[len(g.Bytes)-1])
	}

	g, err = compiled.ParseGrid("mesh8x{2,4,8}")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Machines) != 3 || len(g.Bytes) != 1 || g.Bytes[0] != 64 {
		t.Fatalf("mesh8x{2,4,8} = %d machines, bytes %v", len(g.Machines), g.Bytes)
	}

	g, err = compiled.ParseGrid("fattree{32..256}:bytes=64,4k,1M")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Machines) != 4 || g.Machines[3].P != 256 || len(g.Bytes) != 3 || g.Bytes[2] != 1<<20 {
		t.Fatalf("fattree grid = %+v bytes %v", g.Machines, g.Bytes)
	}

	for _, bad := range []string{
		"", "torus4x4", "mesh4", "mesh{4..}x4", "meshx4", "mesh4x4junk",
		"mesh{8..4}x4", "mesh0x4", "mesh4x4:bytes=", "mesh4x4:bytes=0",
		// Oversized machines: few lattice points, runaway node counts.
		"mesh{2..65536}x{2..65536}:bytes=1..1M",
		"mesh{2..1048576}x{2..1048576}", "fattree1048576",
	} {
		if _, err := compiled.ParseGrid(bad); err == nil {
			t.Fatalf("ParseGrid(%q) accepted", bad)
		}
	}

	// Overflow near MaxInt64: a k/M multiplication that wraps must be
	// rejected, and a doubling range up to MaxInt64 must stop instead of
	// wrapping through MinInt64 and 0 forever.
	if g, err := compiled.ParseGrid("mesh4x4:bytes=9007199254740992k"); err == nil {
		t.Fatalf("overflowing size accepted as %v", g.Bytes)
	}
	g, err = compiled.ParseGrid("mesh4x4:bytes=4611686018427387904..9223372036854775807")
	if err == nil && (len(g.Bytes) != 1 || g.Bytes[0] != 1<<62) {
		t.Fatalf("doubling range to MaxInt64 = %v, want [%d]", g.Bytes, int64(1)<<62)
	}
}
