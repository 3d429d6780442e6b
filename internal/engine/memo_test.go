package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenarios"
)

// bigSweepConfig is the generating configuration of the published
// big-sweep baseline (baselines/big-sweep.json): the m=3 suite whose
// deep nests produce the p≥2 macro-communications the per-plane
// scheduler refines.
var bigSweepConfig = scenarios.Config{Seed: 42, Random: 6, Deep: 4, Skew: true, BigMeshes: true, M: 3}

// TestCacheDeterminismBigSweep: re-running the full big-sweep suite in
// one session serves plans from the plan tier and selections from the
// pricer's warm templates, and the warm results are byte-identical to
// both the first (cold) run and a run with the cache — and therefore
// the pricer — disabled.
func TestCacheDeterminismBigSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full big-sweep re-run")
	}
	suite := scenarios.Generate(bigSweepConfig)
	s := NewSession(Options{Workers: 4})
	cold, err := s.Run(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Run(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	coldR, warmR := stripPhases(cold.Results), stripPhases(warm.Results)
	if !reflect.DeepEqual(coldR, warmR) {
		for i := range coldR {
			if !reflect.DeepEqual(coldR[i], warmR[i]) {
				t.Fatalf("scenario %d (%s):\n cold %+v\n warm %+v", i, suite[i].Name, coldR[i], warmR[i])
			}
		}
		t.Fatal("results differ")
	}

	uncached := Run(suite, Options{Workers: 4, DisableCache: true})
	uncachedR := stripPhases(uncached.Results)
	if !reflect.DeepEqual(coldR, uncachedR) {
		for i := range coldR {
			if !reflect.DeepEqual(coldR[i], uncachedR[i]) {
				t.Fatalf("scenario %d (%s):\n cached %+v\n uncached %+v", i, suite[i].Name, coldR[i], uncachedR[i])
			}
		}
		t.Fatal("results differ")
	}
}

// TestBigSweepPerPlaneMacros: the big-sweep suite actually exercises
// the per-plane path — at least one scenario records a plane- or
// axis-scoped macro choice — and totals aggregate in the report.
func TestBigSweepPerPlaneMacros(t *testing.T) {
	if testing.Short() {
		t.Skip("full big-sweep run")
	}
	suite := scenarios.Generate(bigSweepConfig)
	b := Run(suite, Options{Workers: 4})
	scoped := 0
	for _, r := range b.Results {
		if r.Err != "" {
			continue
		}
		if strings.Contains(r.Collectives, "@plane") || strings.Contains(r.Collectives, "@axis") {
			scoped++
		}
	}
	if scoped == 0 {
		t.Error("no big-sweep scenario recorded a per-plane or per-line macro choice")
	}
}
