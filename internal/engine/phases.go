package engine

import "time"

// PhaseTimes is the per-scenario wall-clock cost attribution: where
// one scenario's engine time went, phase by phase. It rides on
// Result.Phases but is deliberately excluded from Result's JSON form
// — timings differ between runs, and snapshots must stay
// byte-identical (see store.Snapshot); emitters that want timings
// (the /v1 API, CSV) serialize it explicitly.
type PhaseTimes struct {
	// PlanSource names the tier that produced the scenario's plans
	// this run: "memory", "disk" or "compute".
	PlanSource string
	// ComputeUs, AlignUs, KernelUs and KernelOps attribute the plan
	// computation: the full two-step heuristic, step-1 alignment
	// within it, and the exact integer linear algebra (Hermite forms,
	// kernel bases) not served by the kernel memo. For "memory" and
	// "disk" plan sources they report the recorded cost of the
	// original computation — possibly from an earlier process — so
	// cost attribution survives the cache tiers; PlanSource says
	// whether the cost was paid this request.
	ComputeUs float64
	AlignUs   float64
	KernelUs  float64
	KernelOps int
	// StoreUs is the time spent on disk-tier plan lookups and
	// write-backs this run.
	StoreUs float64
	// CostUs is the cost-model walk over the plans (selection
	// included); TotalUs is the scenario's end-to-end engine time.
	CostUs  float64
	TotalUs float64
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e3 }

// PhaseTotals aggregates the session's per-phase wall-clock spend
// over every scenario it has run — the /v1/stats and metrics view of
// PhaseTimes. Align/Kernel/Compute count only scenarios whose plans
// were computed this session (PlanSource "compute"), never the
// recorded historical cost a cache or disk hit reports.
type PhaseTotals struct {
	Scenarios uint64
	ComputeUs float64
	AlignUs   float64
	KernelUs  float64
	StoreUs   float64
	CostUs    float64
	TotalUs   float64
}

// addPhases folds one scenario's breakdown into the session totals.
// Accumulation is in integer nanoseconds (atomic adds); toNs rounds
// rather than truncates, since the µs values are ns counts divided by
// 1e3 and truncation would drop a whole ns of float residue per
// scenario.
func (s *Session) addPhases(p *PhaseTimes) {
	toNs := func(us float64) int64 { return int64(us*1e3 + 0.5) }
	s.phaseScenarios.Add(1)
	if p.PlanSource == "compute" {
		s.phaseComputeNs.Add(toNs(p.ComputeUs))
		s.phaseAlignNs.Add(toNs(p.AlignUs))
		s.phaseKernelNs.Add(toNs(p.KernelUs))
	}
	s.phaseStoreNs.Add(toNs(p.StoreUs))
	s.phaseCostNs.Add(toNs(p.CostUs))
	s.phaseTotalNs.Add(toNs(p.TotalUs))
}

// PhaseTotals snapshots the session's cumulative phase attribution.
func (s *Session) PhaseTotals() PhaseTotals {
	return PhaseTotals{
		Scenarios: s.phaseScenarios.Load(),
		ComputeUs: float64(s.phaseComputeNs.Load()) / 1e3,
		AlignUs:   float64(s.phaseAlignNs.Load()) / 1e3,
		KernelUs:  float64(s.phaseKernelNs.Load()) / 1e3,
		StoreUs:   float64(s.phaseStoreNs.Load()) / 1e3,
		CostUs:    float64(s.phaseCostNs.Load()) / 1e3,
		TotalUs:   float64(s.phaseTotalNs.Load()) / 1e3,
	}
}
