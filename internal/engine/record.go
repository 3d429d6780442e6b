package engine

import (
	"context"
	"strconv"
	"time"

	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/intmat"
	"repro/internal/scenarios"
	"repro/internal/trace"
)

// PlanRecord is the serializable projection of one core.Plan: exactly
// the fields the cost models and batch aggregation read. It is the
// unit the disk tier persists, so a plan loaded from a warm store
// yields byte-identical batch results to a cold recomputation.
type PlanRecord struct {
	Class          int  `json:"class"`
	Vectorizable   bool `json:"vec,omitempty"`
	MacroReduction bool `json:"red,omitempty"`
	// MacroDims lists the virtual grid axes a partial axis-parallel
	// macro-communication spans (sorted; one axis for p=1, several for
	// p ≥ 2), or is empty for total/hidden/non-axis macros. The mesh
	// collective selector schedules one-axis macros along their lines
	// and multi-axis ones per plane (store layout v3; v2 recorded a
	// single MacroDim).
	MacroDims []int        `json:"mdims,omitempty"`
	Factors   []intmat.Rec `json:"factors,omitempty"`
	Dataflow  *intmat.Rec  `json:"dataflow,omitempty"`

	// ComputeUs, AlignUs, KernelUs and KernelOps are set on the first
	// record of an entry only: the wall-clock cost of the heuristic
	// run that produced the entry's plans, so a disk-loaded plan still
	// attributes its original compute cost (see PhaseTimes). They are
	// attribution metadata, not plan content — two stores may record
	// different timings for byte-identical plans, and decoding ignores
	// their absence (records written before this layout report zero).
	ComputeUs float64 `json:"compute_us,omitempty"`
	AlignUs   float64 `json:"align_us,omitempty"`
	KernelUs  float64 `json:"kernel_us,omitempty"`
	KernelOps int     `json:"kernel_ops,omitempty"`
}

// PlanStore is the disk tier consulted between the in-memory memo
// cache and a fresh computation (memory → disk → compute).
// Implementations must be safe for concurrent use and must never
// fail loudly on bad data: a missing, corrupt or mismatched entry is
// reported as ok == false, and the engine recomputes.
// internal/store provides the canonical implementation.
type PlanStore interface {
	GetPlan(key string) (plans []PlanRecord, errMsg string, ok bool)
	PutPlan(key string, plans []PlanRecord, errMsg string)
}

// KernelStore is the optional disk tier behind the kernel memo cache
// (Hermite forms, unimodular inverses, kernel bases), keyed by the
// same op:key scheme intmat.Kernels uses. A PlanStore that also
// implements KernelStore (internal/store does) gets kernel-tier
// persistence wired in automatically, so cold starts skip the exact
// linear algebra, not just the plan construction. The same
// fail-quietly contract as PlanStore applies.
type KernelStore interface {
	GetKernel(key string) (rec intmat.KernelRec, ok bool)
	PutKernel(key string, rec intmat.KernelRec)
}

// planEntry is the plan-tier cache value: the cost-relevant plan
// summaries (or the optimization error) for one distinct optimization
// problem. Entries are shared read-only across scenarios and workers.
type planEntry struct {
	plans []compiled.PlanShape
	err   string
	// Compute-cost attribution, carried with the entry across the
	// cache tiers: the wall-clock of the heuristic run that produced
	// the plans (computeUs total, alignUs step 1, kernelUs/kernelOps
	// the unmemoized exact linear algebra). A disk-loaded entry
	// reports the original computation's cost.
	computeUs, alignUs, kernelUs float64
	kernelOps                    int
}

// optimizeCtx computes a plan entry from scratch via the full
// two-step heuristic, projecting the result down to what costing
// needs and recording the compute-cost attribution. Its kernels go
// through one intmat.Kernels handle memoized in cache (nil: no memo)
// and timed whatever the cache. When ctx carries an active trace it
// adds an "optimize" span with "alignment", "macro", "decompose"
// (from core) and an accumulated "kernel" child.
func optimizeCtx(ctx context.Context, sc *scenarios.Scenario, cache *Cache) planEntry {
	ctx, sp := trace.StartSpan(ctx, "optimize")
	t0 := time.Now()
	k := &intmat.Kernels{}
	if cache != nil {
		// Only a non-nil *Cache becomes the interface: a nil one
		// would be a non-nil KernelCache that panics on Get.
		k.Cache = cache
	}
	res, err := core.OptimizeCtx(ctx, k, sc.Program, sc.M, sc.Opts)
	if k.Ops > 0 {
		trace.AddSpan(ctx, "kernel", t0, k.Time,
			map[string]string{"ops": strconv.Itoa(k.Ops)})
	}
	ent := planEntry{
		computeUs: usSince(t0),
		kernelUs:  float64(k.Time) / 1e3,
		kernelOps: k.Ops,
	}
	if err != nil {
		ent.err = err.Error()
		sp.Set("error", ent.err).End()
		return ent
	}
	ent.alignUs = float64(res.Timing.Align) / 1e3
	ent.plans = compiled.Shapes(res.Plans)
	sp.SetInt("plans", int64(len(ent.plans))).End()
	return ent
}

// toRecords serializes a plan entry for the disk tier.
func toRecords(ent planEntry) ([]PlanRecord, string) {
	recs := make([]PlanRecord, 0, len(ent.plans))
	for _, p := range ent.plans {
		r := PlanRecord{
			Class:          int(p.Class),
			Vectorizable:   p.Vectorizable,
			MacroReduction: p.MacroReduction,
			MacroDims:      p.MacroDims,
		}
		for _, f := range p.Factors {
			r.Factors = append(r.Factors, f.Rec())
		}
		if p.Dataflow != nil {
			rec := p.Dataflow.Rec()
			r.Dataflow = &rec
		}
		recs = append(recs, r)
	}
	if len(recs) > 0 {
		recs[0].ComputeUs = ent.computeUs
		recs[0].AlignUs = ent.alignUs
		recs[0].KernelUs = ent.kernelUs
		recs[0].KernelOps = ent.kernelOps
	}
	return recs, ent.err
}

// fromRecords rebuilds a plan entry from disk records, rejecting
// records that do not decode to valid matrices or classes (the caller
// treats an error as a disk miss and recomputes).
func fromRecords(recs []PlanRecord, errMsg string) (planEntry, error) {
	ent := planEntry{err: errMsg, plans: make([]compiled.PlanShape, 0, len(recs))}
	for _, r := range recs {
		if r.Class < int(core.Local) || r.Class > int(core.General) {
			return planEntry{}, errBadRecord{}
		}
		p := compiled.PlanShape{
			Class:          core.Class(r.Class),
			Vectorizable:   r.Vectorizable,
			MacroReduction: r.MacroReduction,
			MacroDims:      r.MacroDims,
		}
		for _, fr := range r.Factors {
			f, err := intmat.FromRec(fr)
			if err != nil {
				return planEntry{}, err
			}
			p.Factors = append(p.Factors, f)
		}
		if r.Dataflow != nil {
			t, err := intmat.FromRec(*r.Dataflow)
			if err != nil {
				return planEntry{}, err
			}
			p.Dataflow = t
		}
		ent.plans = append(ent.plans, p)
	}
	if len(recs) > 0 {
		ent.computeUs = recs[0].ComputeUs
		ent.alignUs = recs[0].AlignUs
		ent.kernelUs = recs[0].KernelUs
		ent.kernelOps = recs[0].KernelOps
	}
	return ent, nil
}

type errBadRecord struct{}

func (errBadRecord) Error() string { return "engine: plan record has an invalid class" }

// ValidateRecords reports whether the records decode to a valid plan
// entry — the check the engine applies before trusting disk or peer
// data. The cluster replication path uses it to reject bad payloads
// at apply time instead of persisting them.
func ValidateRecords(recs []PlanRecord, errMsg string) error {
	_, err := fromRecords(recs, errMsg)
	return err
}
