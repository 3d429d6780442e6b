package engine

import (
	"strings"
	"testing"

	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/scenarios"
)

// planTime prices one plan exactly as runOne does: through the
// compiled cost dispatch, with selections priced from pricer's
// templates (nil: cold). It returns the model time and the
// collectives summary, which names a macro plan's one choice.
func planTime(sc *scenarios.Scenario, pl compiled.PlanShape, pricer *compiled.Pricer) (float64, string) {
	pt := compiled.EvalPlans([]compiled.PlanShape{pl}, pricer, sc.Machine, sc.Dist, sc.N, sc.ElemBytes)
	return pt.ModelTime, pt.Collectives
}

// meshSpecs are the mesh shapes of the default, skew and big-mesh
// scenario axes.
var meshSpecs = [][2]int{{4, 4}, {8, 8}, {2, 16}, {16, 2}, {64, 2}, {2, 64}, {16, 16}}

// legacyMeshCollectiveTime reproduces the seed cost model: a software
// root-to-all (or all-to-root) loop of P−1 messages, scheduled by the
// link-contention model as one pattern.
func legacyMeshCollectiveTime(m *machine.Mesh2D, bytes int64, reduction bool) float64 {
	var msgs []machine.Message
	for r := 1; r < m.Procs(); r++ {
		msg := machine.Message{Src: 0, Dst: r, Bytes: bytes}
		if reduction {
			msg.Src, msg.Dst = msg.Dst, msg.Src
		}
		msgs = append(msgs, msg)
	}
	return m.Time(msgs)
}

func macroScenario(p, q int, algo string) *scenarios.Scenario {
	return &scenarios.Scenario{
		Machine:   scenarios.MachineSpec{Kind: scenarios.Mesh, P: p, Q: q, Algo: algo},
		N:         16,
		ElemBytes: 64,
	}
}

// macroDimCases are the macroDims shapes the cost model schedules
// differently: total (nil), the two p=1 axes, and the p≥2 multi-axis
// combinations (including the virtual axis 2 of m=3 grids, which has
// no physical extent on the 2-D mesh).
var macroDimCases = [][]int{nil, {0}, {1}, {0, 1}, {0, 2}, {1, 2}, {2}}

// TestMeshMacroNeverWorseThanLegacy is the acceptance bound at the
// engine level: on every default mesh spec, for total, axis and
// per-plane macro-communications, broadcast and reduction, the
// selected collective never costs more than the old flat root-to-all.
func TestMeshMacroNeverWorseThanLegacy(t *testing.T) {
	for _, pq := range meshSpecs {
		m := machine.DefaultMesh(pq[0], pq[1])
		for _, reduction := range []bool{false, true} {
			legacy := legacyMeshCollectiveTime(m, 16*64, reduction)
			for _, dims := range macroDimCases {
				sc := macroScenario(pq[0], pq[1], "")
				cost, choice := planTime(sc, compiled.PlanShape{
					Class: core.MacroComm, MacroReduction: reduction, MacroDims: dims,
				}, nil)
				if cost > legacy {
					t.Errorf("mesh%dx%d dims=%v red=%v: collective cost %.0f > legacy flat %.0f",
						pq[0], pq[1], dims, reduction, cost, legacy)
				}
				if _, algo, ok := strings.Cut(choice, "="); !ok || algo == "" || strings.Contains(choice, ",") {
					t.Errorf("mesh%dx%d dims=%v: macro plan recorded choices %q", pq[0], pq[1], dims, choice)
				}
			}
		}
	}
}

// TestMeshMacroForcedFlatMatchesLegacy: pinning the machine spec to
// the flat algorithm reproduces the seed cost model exactly.
func TestMeshMacroForcedFlatMatchesLegacy(t *testing.T) {
	for _, pq := range meshSpecs {
		m := machine.DefaultMesh(pq[0], pq[1])
		for _, reduction := range []bool{false, true} {
			sc := macroScenario(pq[0], pq[1], "flat")
			cost, choice := planTime(sc, compiled.PlanShape{
				Class: core.MacroComm, MacroReduction: reduction, MacroDims: nil,
			}, nil)
			if want := legacyMeshCollectiveTime(m, 16*64, reduction); cost != want {
				t.Errorf("mesh%dx%d red=%v: forced flat %.2f ≠ legacy %.2f", pq[0], pq[1], reduction, cost, want)
			}
			if !strings.HasSuffix(choice, "=flat") || strings.Contains(choice, ",") {
				t.Errorf("mesh%dx%d: forced flat chose %q", pq[0], pq[1], choice)
			}
		}
	}
}

// TestMeshMacroTopologyAware: axis-parallel and per-plane
// macro-communications price differently on transposed mesh shapes —
// the schedule follows the topology. The p≥2 divergence is the
// acceptance case of the per-plane refactor: a {0,1} macro on a tall
// 64×2 mesh runs a long phase and 64 short ones, its 2×64 transpose
// the opposite.
func TestMeshMacroTopologyAware(t *testing.T) {
	for _, dims := range [][]int{{0}, {1}, {0, 2}, {1, 2}} {
		tall, _ := planTime(macroScenario(64, 2, ""), compiled.PlanShape{Class: core.MacroComm, MacroDims: dims}, nil)
		flat, _ := planTime(macroScenario(2, 64, ""), compiled.PlanShape{Class: core.MacroComm, MacroDims: dims}, nil)
		if tall == flat {
			t.Errorf("dims %v: mesh64x2 and mesh2x64 macro broadcasts cost identically (%.1f µs)", dims, tall)
		}
	}
	// A {0,1} macro spans the whole plane, and the per-plane selector
	// tries both phase orders — so transposing the mesh transposes the
	// winning schedule and the costs coincide exactly. That symmetry is
	// the correct physics (the machines are transposes); pin it so a
	// regression in either phase order shows up.
	tall, _ := planTime(macroScenario(64, 2, ""), compiled.PlanShape{Class: core.MacroComm, MacroDims: []int{0, 1}}, nil)
	flat, _ := planTime(macroScenario(2, 64, ""), compiled.PlanShape{Class: core.MacroComm, MacroDims: []int{0, 1}}, nil)
	if tall != flat {
		t.Errorf("dims [0 1]: transposed meshes with both phase orders should price identically (%.1f vs %.1f µs)", tall, flat)
	}
}

// TestMeshMacroPerPlaneBound: for every default mesh spec, payload
// and pattern, a p≥2 macro under per-plane scheduling costs at most
// its machine-spanning total-collective execution (the acceptance
// criterion of the per-plane refactor — totals stay in the candidate
// pool, so the bound holds by construction and this test pins it).
func TestMeshMacroPerPlaneBound(t *testing.T) {
	for _, pq := range meshSpecs {
		for _, reduction := range []bool{false, true} {
			for _, n := range []int{4, 16, 64} {
				for _, dims := range [][]int{{0, 1}, {0, 2}, {1, 2}} {
					sc := macroScenario(pq[0], pq[1], "")
					sc.N = n
					pi := compiled.PlanShape{Class: core.MacroComm, MacroReduction: reduction}
					pi.MacroDims = dims
					plane, _ := planTime(sc, pi, nil)
					pi.MacroDims = nil
					total, _ := planTime(sc, pi, nil)
					if plane > total {
						t.Errorf("mesh%dx%d dims=%v red=%v n=%d: per-plane %.2f > total %.2f",
							pq[0], pq[1], dims, reduction, n, plane, total)
					}
				}
			}
		}
	}
}

// TestMacroChoiceMemoDeterminism: selection priced from the
// pricer's memoized templates is byte-identical to cold selection (a
// nil pricer, the -no-cache path) for every scheduling mode, for
// broadcasts and reductions, and a repeated evaluation of a warm
// template returns the same choice.
func TestMacroChoiceMemoDeterminism(t *testing.T) {
	pr := compiled.NewPricer()
	for _, pq := range meshSpecs {
		for _, dims := range macroDimCases {
			for _, reduction := range []bool{false, true} {
				sc := macroScenario(pq[0], pq[1], "")
				pi := compiled.PlanShape{Class: core.MacroComm, MacroReduction: reduction, MacroDims: dims}
				coldCost, coldCh := planTime(sc, pi, nil)
				for i := 0; i < 2; i++ {
					cost, ch := planTime(sc, pi, pr)
					if cost != coldCost || ch != coldCh {
						t.Fatalf("mesh%dx%d dims=%v red=%v: pricer selection %s (%.2f) ≠ cold %s (%.2f)",
							pq[0], pq[1], dims, reduction, ch, cost, coldCh, coldCost)
					}
				}
			}
		}
	}
	if st := pr.Stats(); st.TemplateHits == 0 || st.Templates == 0 {
		t.Errorf("pricer served no template hits: %+v", st)
	}
}

// TestCollectivesRecorded: scenarios whose plans include residual
// macro-communications or decomposed phases name their selected
// algorithms, and the batch report aggregates them.
func TestCollectivesRecorded(t *testing.T) {
	b := Run(suite(t), Options{Workers: 4})
	withMacro, withChoice := 0, 0
	for _, r := range b.Results {
		if r.Err != "" {
			continue
		}
		if r.Classes[core.MacroComm] > 0 || r.Classes[core.Decomposed] > 0 {
			withMacro++
			if r.Collectives != "" {
				withChoice++
				if !strings.Contains(r.Collectives, "=") {
					t.Errorf("%s: malformed collectives summary %q", r.Name, r.Collectives)
				}
			}
		}
	}
	if withMacro == 0 {
		t.Fatal("default suite has no macro/decomposed scenarios")
	}
	if withChoice == 0 {
		t.Fatal("no scenario recorded a collective choice")
	}
	if rep := b.Report(); !strings.Contains(rep, "collectives:") {
		t.Errorf("report missing the collectives line:\n%s", rep)
	}
}

// TestDecomposedPermuteNeverWorseThanDirect: routing decomposed
// phases through the permute selector can only match or improve on
// the seed's direct phase execution.
func TestDecomposedPermuteNeverWorseThanDirect(t *testing.T) {
	s := scenarios.Generate(scenarios.Config{Seed: 7})
	direct := make([]scenarios.Scenario, 0, len(s))
	free := make([]scenarios.Scenario, 0, len(s))
	for _, sc := range s {
		if sc.Machine.Kind != scenarios.Mesh {
			continue
		}
		d := sc
		d.Machine.Algo = "direct"
		d.Name = "direct/" + sc.Name
		direct = append(direct, d)
		free = append(free, sc)
	}
	bd := Run(direct, Options{Workers: 4})
	bf := Run(free, Options{Workers: 4})
	for i := range bf.Results {
		rf, rd := bf.Results[i], bd.Results[i]
		if rf.Err != "" || rd.Err != "" {
			continue
		}
		// The forced-direct run also pins macro collectives to direct,
		// which is not a mesh tree name, so macros fall back to free
		// selection there; only decomposed-phase costs can differ, and
		// only downward.
		if rf.ModelTime > rd.ModelTime*(1+1e-12) {
			t.Errorf("%s: free selection %.2f > forced direct %.2f", rf.Name, rf.ModelTime, rd.ModelTime)
		}
	}
}
