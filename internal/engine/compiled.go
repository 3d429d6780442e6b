package engine

import (
	"context"

	"repro/internal/compiled"
	"repro/internal/scenarios"
	"repro/internal/trace"
)

// CompiledArtifact returns the compiled structural artifact for the
// scenario's optimization problem: a view of the nest's plan-tier
// entry, resolved like any plan (memory → disk → peer → compute), so a
// restart on a warm store is served from plans/. The artifact is
// machine-independent, and evaluating it with the session's Pricer
// prices any machine point without re-running alignment, Hermite
// forms or schedule construction. Records a "compiled.artifact" span
// when ctx carries an active trace.
func (s *Session) CompiledArtifact(ctx context.Context, sc *scenarios.Scenario) *compiled.Artifact {
	ctx, sp := trace.StartSpan(ctx, "compiled.artifact")
	defer sp.End()
	key := sc.PlanKey()
	if s.cache == nil {
		sp.Set("source", "compute")
		ent := optimizeCtx(ctx, sc, nil)
		return compiled.New(key, ent.plans, ent.err)
	}
	src := "memory"
	ent := s.cache.planDo(key, func() planEntry {
		e, from, _ := computeOrLoad(ctx, sc, s.cache, s.store, s.remote)
		src = from
		return e
	})
	sp.Set("source", src)
	return compiled.New(key, ent.plans, ent.err)
}
