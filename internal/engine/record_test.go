package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/affine"
	"repro/internal/compiled"
	"repro/internal/distrib"
	"repro/internal/scenarios"
)

// mixedShapeRecord is a decomposed plan whose factor chain mixes a
// 2×2 and a 3×3 matrix: every matrix decodes and the class is valid,
// but core never produces it, and pricing it on a mesh reached
// machine.AffineComm2D with a 3×3 matrix, which panics.
const mixedShapeRecord = `[{"class":2,"factors":[{"r":2,"c":2,"v":[1,0,0,1]},{"r":3,"c":3,"v":[1,0,0,0,1,0,0,0,1]}]}]`

var blockBlock = distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}

// TestMixedShapeRecordRecomputed: a stored plan whose factors are not
// square matrices of one size is rejected as a disk miss and the plan
// recomputed, instead of killing the worker that prices it.
func TestMixedShapeRecordRecomputed(t *testing.T) {
	var recs []PlanRecord
	if err := json.Unmarshal([]byte(mixedShapeRecord), &recs); err != nil {
		t.Fatal(err)
	}
	ms, err := scenarios.ParseMachineSpec("mesh4x4")
	if err != nil {
		t.Fatal(err)
	}
	sc := &scenarios.Scenario{Name: "matmul", Program: affine.ExampleByName("matmul"), M: 2,
		Machine: ms, Dist: blockBlock, N: 16, ElemBytes: 64}
	st := newMemStore()
	st.m[sc.PlanKey()] = memPlan{plans: recs}

	s := NewSession(Options{Workers: 1, Store: st})
	defer s.Close()
	got, err := s.Optimize(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	want := Run([]scenarios.Scenario{*sc}, Options{Workers: 1, DisableCache: true}).Results[0]
	got.Phases, want.Phases = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result over the bad record %+v, want the recomputed %+v", got, want)
	}
	if cs := s.CacheStats(); cs.DiskHits != 0 || cs.DiskMisses != 1 {
		t.Fatalf("bad record: %d disk hits, %d disk misses; want 0, 1", cs.DiskHits, cs.DiskMisses)
	}
	if st.puts != 1 {
		t.Fatalf("the recomputed plan was written %d times, want 1", st.puts)
	}
	if err := ValidateRecords(recs, ""); err == nil {
		t.Fatal("ValidateRecords accepted a mixed-shape factor chain")
	}
}

// FuzzPlanRecords fuzzes the plan-record trust boundary: whatever JSON
// a plans/ file or a peer's FetchPlan reply holds, records that
// ValidateRecords accepts must price on a mesh and a fat tree without
// panicking, through the session pricer and the cold path alike. The
// seed corpus under testdata/fuzz holds the records of the built-in
// examples and the mixed-shape record.
//
//	go test -run '^$' -fuzz FuzzPlanRecords -fuzztime 30s ./internal/engine
func FuzzPlanRecords(f *testing.F) {
	var machines []scenarios.MachineSpec
	for _, m := range []string{"mesh4x4", "fattree32"} {
		ms, err := scenarios.ParseMachineSpec(m)
		if err != nil {
			f.Fatal(err)
		}
		machines = append(machines, ms)
	}
	pr := compiled.NewPricer()
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []PlanRecord
		if json.Unmarshal(data, &recs) != nil {
			return
		}
		ent, err := fromRecords(recs, "")
		if err != nil {
			return
		}
		for _, ms := range machines {
			for _, p := range []*compiled.Pricer{pr, nil} {
				compiled.EvalPlans(ent.plans, p, ms, blockBlock, 16, 64)
			}
		}
	})
}
