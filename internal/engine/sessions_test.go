package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/scenarios"
)

// TestConcurrentSessions: any number of sessions may coexist in one
// process — a 2-node in-process cluster runs two daemons, each with
// its own engine session. Two overlapping sessions (one cached, one
// with the cache-disabled ablation) must both complete, produce
// identical results, and keep their kernel accounting separate: each
// plan computation hands its own session's cache to the kernels, so
// the ablation sees no cache at all yet still attributes kernel time,
// and the cached session's computed kernels are exactly its memo
// misses.
func TestConcurrentSessions(t *testing.T) {
	s := scenarios.Generate(scenarios.Config{Seed: 7, Random: 6, NoExamples: true})
	cached := NewSession(Options{Workers: 2})
	defer cached.Close()
	ablate := NewSession(Options{Workers: 2, DisableCache: true})
	defer ablate.Close()

	var wg sync.WaitGroup
	var bc, ba *BatchResult
	wg.Add(2)
	go func() { defer wg.Done(); bc, _ = cached.Run(context.Background(), s) }()
	go func() { defer wg.Done(); ba, _ = ablate.Run(context.Background(), s) }()
	wg.Wait()

	if !reflect.DeepEqual(stripPhases(bc.Results), stripPhases(ba.Results)) {
		t.Fatal("concurrent cached and uncached sessions disagree")
	}
	if bc.Cache.KernelHits+bc.Cache.KernelMisses == 0 {
		t.Error("cached session's kernel tier saw no traffic")
	}
	if ba.Cache != (CacheStats{}) {
		t.Errorf("cache-disabled session accumulated stats %+v — kernel memo leaked across sessions", ba.Cache)
	}

	ablateOps, ablateUs := 0, 0.0
	for i, r := range ba.Results {
		if r.Phases.PlanSource != "compute" {
			t.Fatalf("%s: ablation PlanSource = %q, want compute", r.Name, r.Phases.PlanSource)
		}
		ablateOps += r.Phases.KernelOps
		ablateUs += r.Phases.KernelUs
		// the memo can only save kernels, never add them
		if c := bc.Results[i].Phases; c.PlanSource == "compute" && c.KernelOps > r.Phases.KernelOps {
			t.Errorf("%s: cached session computed %d kernels, uncached %d", r.Name, c.KernelOps, r.Phases.KernelOps)
		}
	}
	if ablateOps == 0 || ablateUs <= 0 {
		t.Errorf("cache-disabled session attributed no kernel work (%d ops)", ablateOps)
	}

	cachedOps := 0
	for _, r := range bc.Results {
		if r.Phases.PlanSource == "compute" {
			cachedOps += r.Phases.KernelOps
		}
	}
	if uint64(cachedOps) != bc.Cache.KernelMisses {
		t.Errorf("computed scenarios attribute %d kernel ops, kernel tier counted %d misses", cachedOps, bc.Cache.KernelMisses)
	}
}

// fakeRemote is a RemotePlanTier for engine-level tests: it serves
// plans from a fixed map and records traffic.
type fakeRemote struct {
	mu       sync.Mutex
	plans    map[string]memPlan
	fetches  int
	computed []string
}

func (r *fakeRemote) FetchPlan(_ context.Context, key string) ([]PlanRecord, string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fetches++
	p, ok := r.plans[key]
	return p.plans, p.err, ok
}

func (r *fakeRemote) PlanComputed(key string, plans []PlanRecord, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.computed = append(r.computed, key)
}

// TestRemotePlanTier: a memory+disk miss consults the remote tier
// before computing; a remote hit is attributed to PlanSource "peer",
// written through to the store, and identical to a local computation.
// A remote miss computes locally and announces via PlanComputed.
func TestRemotePlanTier(t *testing.T) {
	s := scenarios.Generate(scenarios.Config{Seed: 7, Random: 2, NoExamples: true})
	sc := &s[0]

	// A plain run supplies the reference result and the peer's records.
	peerStore := newMemStore()
	ref := Run([]scenarios.Scenario{*sc}, Options{Workers: 1, Store: peerStore})

	remote := &fakeRemote{plans: peerStore.m}
	localStore := newMemStore()
	sess := NewSession(Options{Workers: 1, Store: localStore, Remote: remote})
	defer sess.Close()
	got, err := sess.Optimize(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phases == nil || got.Phases.PlanSource != "peer" {
		t.Fatalf("PlanSource = %v, want peer", got.Phases)
	}
	if !reflect.DeepEqual(stripPhases([]Result{got}), stripPhases(ref.Results[:1])) {
		t.Fatal("peer-served result differs from local computation")
	}
	if _, _, ok := localStore.GetPlan(sc.PlanKey()); !ok {
		t.Error("peer-served plan was not written through to the local store")
	}
	if len(remote.computed) != 0 {
		t.Errorf("remote hit still announced PlanComputed for %v", remote.computed)
	}

	// A key no peer holds: remote is consulted, misses, the plan is
	// computed locally and announced for replication. Suites cross
	// each program with several machines, so scan for a scenario whose
	// canonical key actually differs from the peer-served one.
	var cold *scenarios.Scenario
	for i := range s[1:] {
		if s[1+i].PlanKey() != sc.PlanKey() {
			cold = &s[1+i]
			break
		}
	}
	if cold == nil {
		t.Fatal("suite has no second distinct plan key")
	}
	got, err = sess.Optimize(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phases.PlanSource != "compute" {
		t.Fatalf("cold PlanSource = %q, want compute", got.Phases.PlanSource)
	}
	if len(remote.computed) != 1 || remote.computed[0] != cold.PlanKey() {
		t.Errorf("PlanComputed announcements = %v, want the cold key once", remote.computed)
	}
}
