package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenarios"
)

// sameShardKeys returns n distinct keys that hash to the same shard
// as anchor, so LRU ordering inside one shard can be tested
// deterministically.
func sameShardKeys(c *Cache, anchor string, n int) []string {
	target := c.shard(anchor)
	keys := []string{anchor}
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("%s-%d", anchor, i)
		if c.shard(k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCacheEviction: the cache drops least-recently-used entries once
// past its cap and counts the evictions.
func TestCacheEviction(t *testing.T) {
	const cap = 32
	c := NewCache(cap)
	for i := 0; i < 10*cap; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(); n > cap {
		t.Errorf("cache holds %d entries, cap %d", n, cap)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions counted after 10× overfill")
	}
	if st.Entries+int(st.Evictions) != 10*cap {
		t.Errorf("entries %d + evictions %d ≠ inserts %d", st.Entries, st.Evictions, 10*cap)
	}
}

// TestCacheLRUOrder: within one shard, a recently used entry survives
// an eviction that removes a stale one.
func TestCacheLRUOrder(t *testing.T) {
	// 16 shards × per-shard cap 2 = cap 32.
	c := NewCache(32)
	keys := sameShardKeys(c, "anchor", 3)
	c.Put(keys[0], "a")
	c.Put(keys[1], "b")
	if _, ok := c.Get(keys[0]); !ok { // refresh keys[0]
		t.Fatal("keys[0] missing before eviction")
	}
	c.Put(keys[2], "c") // shard over cap: evicts LRU = keys[1]
	if _, ok := c.lookup(keys[0]); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.lookup(keys[1]); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := c.lookup(keys[2]); !ok {
		t.Error("newly inserted entry missing")
	}
}

// TestCacheUnbounded: a negative cap disables eviction.
func TestCacheUnbounded(t *testing.T) {
	c := NewCache(-1)
	for i := 0; i < 10000; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(); n != 10000 {
		t.Errorf("unbounded cache holds %d entries, want 10000", n)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Errorf("unbounded cache evicted %d entries", ev)
	}
}

// TestCacheCapConsistency: a run squeezed through a tiny cache must
// still produce byte-identical results — eviction costs recomputation,
// never correctness.
func TestCacheCapConsistency(t *testing.T) {
	s := suite(t)
	base := Run(s, Options{Workers: 4})
	tiny := Run(s, Options{Workers: 4, CacheCap: 16})
	if !reflect.DeepEqual(stripPhases(base.Results), stripPhases(tiny.Results)) {
		t.Fatal("results differ under a tiny cache cap")
	}
	if tiny.Cache.Evictions == 0 {
		t.Error("tiny cap saw no evictions on the default suite")
	}
	if tiny.Cache.Entries > 16 {
		t.Errorf("tiny cache holds %d entries, cap 16", tiny.Cache.Entries)
	}
}

// memStore is an in-memory PlanStore for engine-level disk-tier
// tests (the real disk implementation lives in internal/store).
type memStore struct {
	mu   sync.Mutex
	m    map[string]memPlan
	puts int
}

type memPlan struct {
	plans []PlanRecord
	err   string
}

func newMemStore() *memStore { return &memStore{m: map[string]memPlan{}} }

func (s *memStore) GetPlan(key string) ([]PlanRecord, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[key]
	return p.plans, p.err, ok
}

func (s *memStore) PutPlan(key string, plans []PlanRecord, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = memPlan{plans, errMsg}
	s.puts++
}

// TestStoreTier: a second run against a warm store computes nothing —
// every plan-tier memory miss is served from the store — and yields
// results identical to the cold run.
func TestStoreTier(t *testing.T) {
	s := suite(t)
	st := newMemStore()
	cold := Run(s, Options{Workers: 4, Store: st})
	if cold.Cache.DiskHits != 0 {
		t.Errorf("cold run had %d disk hits", cold.Cache.DiskHits)
	}
	if cold.Cache.DiskMisses != cold.Cache.PlanMisses {
		t.Errorf("cold run: %d disk misses, want %d (= plan misses)",
			cold.Cache.DiskMisses, cold.Cache.PlanMisses)
	}
	if st.puts == 0 {
		t.Fatal("cold run persisted nothing")
	}

	warm := Run(s, Options{Workers: 4, Store: st})
	coldR, warmR := stripPhases(cold.Results), stripPhases(warm.Results)
	if !reflect.DeepEqual(coldR, warmR) {
		for i := range coldR {
			if !reflect.DeepEqual(coldR[i], warmR[i]) {
				t.Fatalf("scenario %d (%s):\n cold %+v\n warm %+v",
					i, s[i].Name, coldR[i], warmR[i])
			}
		}
		t.Fatal("results differ")
	}
	if warm.Cache.DiskMisses != 0 {
		t.Errorf("warm run missed the store %d times", warm.Cache.DiskMisses)
	}
	if warm.Cache.DiskHits != warm.Cache.PlanMisses {
		t.Errorf("warm run: %d disk hits, want %d (every memory miss served from disk)",
			warm.Cache.DiskHits, warm.Cache.PlanMisses)
	}
}

// TestStoreTierBadRecords: undecodable store records are treated as
// misses and overwritten with fresh plans, never trusted or fatal.
func TestStoreTierBadRecords(t *testing.T) {
	s := scenarios.Generate(scenarios.Config{Seed: 7, Random: 1, NoExamples: true})
	st := newMemStore()
	base := Run(s, Options{Workers: 2, Store: st})
	// Corrupt every stored record: invalid class and a broken matrix.
	st.mu.Lock()
	for k := range st.m {
		st.m[k] = memPlan{plans: []PlanRecord{{Class: 99}}}
	}
	st.mu.Unlock()
	again := Run(s, Options{Workers: 2, Store: st})
	if !reflect.DeepEqual(stripPhases(base.Results), stripPhases(again.Results)) {
		t.Fatal("corrupt store records changed results")
	}
	if again.Cache.DiskHits != 0 {
		t.Errorf("corrupt records produced %d disk hits", again.Cache.DiskHits)
	}
}

// TestStoreErrorCached: failing scenarios are persisted too, so a
// warm run reproduces the error without recomputation.
func TestStoreErrorCached(t *testing.T) {
	s := scenarios.Generate(scenarios.Config{Seed: 7, Random: 1, NoExamples: true})
	bad := s[0]
	bad.M = 0
	bad.Name = "bad/m0"
	batch := []scenarios.Scenario{bad}
	st := newMemStore()
	cold := Run(batch, Options{Store: st})
	if cold.Results[0].Err == "" {
		t.Fatal("m=0 scenario did not error")
	}
	warm := Run(batch, Options{Store: st})
	if warm.Results[0].Err != cold.Results[0].Err {
		t.Errorf("warm error %q ≠ cold error %q", warm.Results[0].Err, cold.Results[0].Err)
	}
	if warm.Cache.DiskHits != 1 {
		t.Errorf("warm run had %d disk hits, want 1", warm.Cache.DiskHits)
	}
}

// TestSessionReuse: one session serving many Optimize calls shares
// its plan cache across them, like the daemon does across requests.
func TestSessionReuse(t *testing.T) {
	s := scenarios.Generate(scenarios.Config{Seed: 7, Random: 2, NoExamples: true})
	sess := NewSession(Options{Workers: 2})
	defer sess.Close()
	first, err := sess.Optimize(context.Background(), &s[0])
	if err != nil {
		t.Fatal(err)
	}
	again, err := sess.Optimize(context.Background(), &s[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripPhases([]Result{first}), stripPhases([]Result{again})) {
		t.Fatal("repeated Optimize returned different results")
	}
	if hits := sess.CacheStats().PlanHits; hits == 0 {
		t.Error("second Optimize of the same scenario missed the plan cache")
	}
}

// TestRunStreamOrder: RunStream emits every result exactly once, in
// input order, and returns the same aggregate as Run.
func TestRunStreamOrder(t *testing.T) {
	s := suite(t)
	sess := NewSession(Options{Workers: 8})
	defer sess.Close()
	var streamed []Result
	b, err := sess.RunStream(context.Background(), s, func(r Result) { streamed = append(streamed, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(s) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(s))
	}
	for i := range streamed {
		if streamed[i].Name != s[i].Name {
			t.Fatalf("stream position %d: got %s, want %s", i, streamed[i].Name, s[i].Name)
		}
	}
	if !reflect.DeepEqual(streamed, b.Results) {
		t.Fatal("streamed results differ from the batch results")
	}
}

// TestCacheTierKeysDisjoint: the plan tier keys entries by the bare
// PlanKey, so a key beginning "m=" must be a plan slot and every plan
// slot's key must begin so — no kernel key may land in the plan
// tier's key space. A compiled artifact is a view of its plan
// slot: resolving one caches nothing of its own.
func TestCacheTierKeysDisjoint(t *testing.T) {
	s := NewSession(Options{Workers: 2})
	defer s.Close()
	batch := suite(t)
	if _, err := s.Run(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	entries := s.cache.Len()
	if art := s.CompiledArtifact(context.Background(), &batch[0]); art.Key != batch[0].PlanKey() {
		t.Fatalf("artifact key %.40q, want the plan key", art.Key)
	}
	if n := s.cache.Len(); n != entries {
		t.Errorf("resolving a warm artifact changed the cache from %d to %d entries", entries, n)
	}
	tiers := map[string]int{}
	for i := range s.cache.shards {
		sh := &s.cache.shards[i]
		sh.mu.Lock()
		for key, el := range sh.m {
			_, plan := el.Value.(*cacheCell).v.(*planSlot)
			if plan != strings.HasPrefix(key, "m=") {
				t.Errorf("key %.40q: plan slot %v", key, plan)
			}
			tier, _, _ := strings.Cut(key, ":")
			if plan {
				tier = "plan"
			}
			tiers[tier]++
		}
		sh.mu.Unlock()
	}
	for _, tier := range []string{"plan", "hnfL", "ker"} {
		if tiers[tier] == 0 {
			t.Errorf("no %s entries cached (tiers %v)", tier, tiers)
		}
	}
}
