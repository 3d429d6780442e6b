package engine

import (
	"context"

	"repro/internal/compiled"
	"repro/internal/scenarios"
	"repro/internal/trace"
)

// CompiledStore is the optional disk tier behind the compiled-artifact
// cache, keyed by the scenario plan key. A PlanStore that also
// implements CompiledStore (internal/store does) gets artifact
// persistence wired in automatically, so lattice sweeps and daemon
// restarts skip the structural compile, not just the plan
// construction. The same fail-quietly contract as PlanStore applies.
type CompiledStore interface {
	GetCompiled(key string) (rec compiled.ArtifactRec, ok bool)
	PutCompiled(key string, rec compiled.ArtifactRec)
}

// CompiledArtifact returns the compiled structural artifact for the
// scenario's optimization problem, through the session's cache tiers:
// artifact memory → compiled disk tier → build from the plan tier
// (which itself goes memory → disk → peer → compute). The artifact is
// machine-independent — every scenario sharing the nest's PlanKey
// shares it — and evaluating it with the session's Pricer prices any
// machine point without re-running alignment, Hermite forms or
// schedule construction. Records a "compiled.artifact" span when ctx
// carries an active trace.
func (s *Session) CompiledArtifact(ctx context.Context, sc *scenarios.Scenario) *compiled.Artifact {
	ctx, sp := trace.StartSpan(ctx, "compiled.artifact")
	defer sp.End()
	key := sc.PlanKey()
	if s.cache == nil {
		sp.Set("source", "compute")
		ent := optimizeCtx(ctx, sc, nil)
		return compiled.New(key, ent.plans, ent.err)
	}
	ck := "compiled:" + key
	if v, ok := s.cache.lookup(ck); ok {
		s.cache.compiledHits.Add(1)
		sp.Set("source", "memory")
		return v.(*compiled.Artifact)
	}
	s.cache.compiledMisses.Add(1)
	if s.cstore != nil {
		_, lsp := trace.StartSpan(ctx, "store.lookup")
		lsp.Set("tier", "compiled")
		if rec, ok := s.cstore.GetCompiled(key); ok {
			if art, err := compiled.FromRec(rec); err == nil && art.Key == key {
				s.cache.compiledDiskHits.Add(1)
				s.cache.store(ck, art)
				lsp.Set("result", "hit").End()
				sp.Set("source", "disk")
				return art
			}
		}
		s.cache.compiledDiskMisses.Add(1)
		lsp.Set("result", "miss").End()
	}
	// Build from the plan tier: the structural phase is exactly the
	// plan-tier computation, so a warm plan cache (memory, disk or
	// peer) makes artifact construction a pure projection.
	ent := s.cache.planDo(key, func() planEntry {
		e, _, _ := computeOrLoad(ctx, sc, s.cache, s.store, s.remote)
		return e
	})
	art := compiled.New(key, ent.plans, ent.err)
	s.cache.store(ck, art)
	if s.cstore != nil {
		s.cstore.PutCompiled(key, art.Rec())
	}
	sp.Set("source", "plans")
	return art
}
