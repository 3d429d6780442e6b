package collective

import (
	"testing"

	"repro/internal/machine"
)

// BenchmarkCollectiveSelect measures the one-shot cold selection with
// no template cache (the engine's no-cache mode): compile every
// algorithm's template for a total broadcast on a square mesh and
// evaluate it once. Cached sessions compile once per structure and
// pay only MeshTemplate.Eval afterwards.
func BenchmarkCollectiveSelect(b *testing.B) {
	m := machine.DefaultMesh(16, 16)
	var ch Choice
	for i := 0; i < b.N; i++ {
		ch = SelectMesh(m, Broadcast, 0, 4096, "")
	}
	b.ReportMetric(ch.Cost, "model-µs")
}

// BenchmarkCollectiveSelectSkewed is the same one-shot compile on the
// tall-mesh shape where the dimension-ordered tree matters.
func BenchmarkCollectiveSelectSkewed(b *testing.B) {
	m := machine.DefaultMesh(64, 2)
	var ch Choice
	for i := 0; i < b.N; i++ {
		ch = SelectMesh(m, Broadcast, 0, 4096, "")
	}
	b.ReportMetric(ch.Cost, "model-µs")
}

// BenchmarkCollectiveSelectFatTree prices the fixed-cost fat-tree
// candidates (no schedules to build; this is the cheap path).
func BenchmarkCollectiveSelectFatTree(b *testing.B) {
	f := machine.DefaultFatTree(64)
	var ch Choice
	for i := 0; i < b.N; i++ {
		ch = SelectFatTree(f, Reduction, 4096, "")
	}
	b.ReportMetric(ch.Cost, "model-µs")
}

// BenchmarkPermuteSelect prices the per-phase shift selection used by
// decomposed plans.
func BenchmarkPermuteSelect(b *testing.B) {
	m := machine.DefaultMesh(8, 8)
	var msgs []machine.Message
	for x := 0; x < m.P; x++ {
		for y := 0; y < m.Q; y++ {
			msgs = append(msgs, machine.Message{Src: m.Rank(x, y), Dst: m.Rank(y, x), Bytes: 256})
		}
	}
	var ch Choice
	for i := 0; i < b.N; i++ {
		ch = SelectPermute(m, msgs, "")
	}
	b.ReportMetric(ch.Cost, "model-µs")
}

// bigSweepMeshes are the mesh geometries of the big sweep
// (scenarios.Generate with Skew and BigMeshes).
var bigSweepMeshes = [][2]int{{4, 4}, {8, 8}, {2, 16}, {16, 2}, {64, 2}, {2, 64}, {16, 16}}

// BenchmarkMeshTemplateCompile compiles, with a fresh TemplateBuilder
// per mesh and op, every mesh template structure a cold session
// builds on the big sweep's geometries: the total line, both
// per-dimension line sets and the full-plane composition, for
// broadcasts and reductions.
func BenchmarkMeshTemplateCompile(b *testing.B) {
	meshes := make([]*machine.Mesh2D, len(bigSweepMeshes))
	for i, sh := range bigSweepMeshes {
		meshes[i] = machine.DefaultMesh(sh[0], sh[1])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range meshes {
			tb := NewTemplateBuilder(m)
			for _, p := range []Pattern{Broadcast, Reduction} {
				tb.Dim(p, 0, "")
				tb.Dim(p, 1, "")
				tb.Macro(p, []int{0, 1}, "")
			}
		}
	}
}
