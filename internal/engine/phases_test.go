package engine

import (
	"context"
	"testing"

	"repro/internal/scenarios"
	"repro/internal/trace"
)

// macroSuiteScenario returns a scenario whose optimization yields at
// least one macro-communication, so collective selection runs (the
// paper's example 1 broadcasts on the fat tree).
func macroSuiteScenario(t *testing.T) *scenarios.Scenario {
	t.Helper()
	s := scenarios.Generate(scenarios.Config{Seed: 7})
	if len(s) == 0 {
		t.Fatal("empty default suite")
	}
	return &s[0]
}

// TestPhaseAttribution: a cold run attributes compute/align/kernel
// time, a warm run reports the memory tier with the recorded compute
// cost and the same collectives, and a fresh session over the same
// store reports the disk tier — with the original compute cost
// carried through the PlanRecord timing fields.
func TestPhaseAttribution(t *testing.T) {
	sc := macroSuiteScenario(t)
	st := newMemStore()
	sess := NewSession(Options{Workers: 2, Store: st})

	cold, err := sess.Optimize(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	ph := cold.Phases
	if ph == nil {
		t.Fatal("cold result has no phase breakdown")
	}
	if ph.PlanSource != "compute" {
		t.Errorf("cold plan source = %q, want compute", ph.PlanSource)
	}
	if ph.ComputeUs <= 0 || ph.AlignUs <= 0 || ph.TotalUs <= 0 {
		t.Errorf("cold run lost compute attribution: %+v", ph)
	}
	if ph.KernelOps == 0 || ph.KernelUs <= 0 {
		t.Errorf("no kernel time attributed on a cold run: %+v", ph)
	}
	if cold.Collectives == "" {
		t.Fatalf("scenario %s selected no collectives; pick one that does", sc.Name)
	}
	if ph.CostUs <= 0 {
		t.Errorf("cold run attributed no cost time: %+v", ph)
	}

	warm, err := sess.Optimize(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	wph := warm.Phases
	if wph.PlanSource != "memory" {
		t.Errorf("warm plan source = %q, want memory", wph.PlanSource)
	}
	if wph.ComputeUs != ph.ComputeUs || wph.KernelOps != ph.KernelOps {
		t.Errorf("warm run lost the recorded compute cost: cold %+v warm %+v", ph, wph)
	}
	if warm.Collectives != cold.Collectives {
		t.Errorf("warm collectives %q, cold %q", warm.Collectives, cold.Collectives)
	}

	totals := sess.PhaseTotals()
	if totals.Scenarios != 2 {
		t.Errorf("session counted %d scenarios, want 2", totals.Scenarios)
	}
	// Only the cold run computed; the warm run must not double-count
	// the recorded historical cost.
	if totals.ComputeUs != ph.ComputeUs {
		t.Errorf("session compute total %g, want the cold run's %g", totals.ComputeUs, ph.ComputeUs)
	}
	// The session accumulates in integer nanoseconds, so allow one ns
	// of rounding against the float sum of the per-scenario values.
	if totals.TotalUs < ph.TotalUs+wph.TotalUs-0.001 {
		t.Errorf("session total %g < sum of scenario totals %g", totals.TotalUs, ph.TotalUs+wph.TotalUs)
	}
	sess.Close()

	// A fresh session over the same store: plans come from disk, and
	// the PlanRecord timing fields carry the original compute cost.
	sess2 := NewSession(Options{Workers: 2, Store: st})
	defer sess2.Close()
	disk, err := sess2.Optimize(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	dph := disk.Phases
	if dph.PlanSource != "disk" {
		t.Errorf("fresh-session plan source = %q, want disk", dph.PlanSource)
	}
	if dph.StoreUs <= 0 {
		t.Errorf("disk hit attributed no store time: %+v", dph)
	}
	if dph.ComputeUs != ph.ComputeUs || dph.AlignUs != ph.AlignUs ||
		dph.KernelUs != ph.KernelUs || dph.KernelOps != ph.KernelOps {
		t.Errorf("disk-loaded entry lost the recorded compute cost:\n cold %+v\n disk %+v", ph, dph)
	}
	if ct := sess2.PhaseTotals().ComputeUs; ct != 0 {
		t.Errorf("fresh session charged %gµs of compute for a disk hit", ct)
	}
}

// spanNames flattens a recorded trace into name → spans.
func spanNames(td *trace.TraceData) map[string][]trace.SpanData {
	out := map[string][]trace.SpanData{}
	for _, sd := range td.Spans {
		out[sd.Name] = append(out[sd.Name], sd)
	}
	return out
}

// TestScenarioTrace: optimizing under an active trace records the
// full span tree — scenario, store lookup, optimize with alignment
// and kernel children — with non-zero durations, and the scenario
// span names the chosen collectives on cold and warm runs alike.
func TestScenarioTrace(t *testing.T) {
	sc := macroSuiteScenario(t)
	st := newMemStore()
	sess := NewSession(Options{Workers: 2, Store: st})
	defer sess.Close()
	rec := trace.NewRecorder(4)

	ctx, root := trace.StartRoot(context.Background(), rec, "cold", "")
	res, err := sess.Optimize(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collectives == "" {
		t.Fatalf("scenario %s selected no collectives; pick one that does", sc.Name)
	}
	root.End()
	td, ok := rec.Get(root.TraceID().String())
	if !ok {
		t.Fatal("cold trace not recorded")
	}
	names := spanNames(td)
	for _, want := range []string{"scenario", "store.lookup", "optimize", "alignment", "kernel"} {
		spans := names[want]
		if len(spans) == 0 {
			t.Fatalf("cold trace has no %q span:\n%s", want, td.TreeString())
		}
		for _, sd := range spans {
			if sd.DurationUs <= 0 {
				t.Errorf("%q span has zero duration", want)
			}
		}
	}
	if got := names["scenario"][0].Attrs["plan_source"]; got != "compute" {
		t.Errorf("cold scenario span plan_source = %q, want compute", got)
	}
	if got := names["store.lookup"][0].Attrs["result"]; got != "miss" {
		t.Errorf("cold store.lookup result = %q, want miss", got)
	}
	if got := names["scenario"][0].Attrs["collectives"]; got != res.Collectives {
		t.Errorf("cold scenario collectives = %q, want %q", got, res.Collectives)
	}

	ctx, root = trace.StartRoot(context.Background(), rec, "warm", "")
	if _, err := sess.Optimize(ctx, sc); err != nil {
		t.Fatal(err)
	}
	root.End()
	td, ok = rec.Get(root.TraceID().String())
	if !ok {
		t.Fatal("warm trace not recorded")
	}
	names = spanNames(td)
	if got := names["scenario"][0].Attrs["collectives"]; got != res.Collectives {
		t.Errorf("warm scenario collectives = %q, want %q:\n%s", got, res.Collectives, td.TreeString())
	}
	if len(names["optimize"]) != 0 {
		t.Error("warm run recorded an optimize span despite the memory hit")
	}
}
