package engine

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/intmat"
)

// Cache is a concurrency-safe memo store shared by every worker of a
// session. It memoizes at two tiers:
//
//   - kernel tier: Hermite normal forms, unimodular inverses and
//     integer kernel bases, reached from package intmat through the
//     intmat.Kernels handle each plan computation builds over its
//     session's cache (Get/Put below implement intmat.KernelCache);
//   - plan tier: the complete two-step heuristic result per distinct
//     optimization problem (canonical program + target dimension +
//     options), which subsumes the access-graph construction and its
//     maximum branching.
//
// Collective selections are not cached here: the session's
// compiled.Pricer compiles each selection structure once and prices
// every payload from that template.
//
// Every memoized computation is a pure function of its canonical
// key, so a hit always returns exactly what recomputation would.
//
// The cache is bounded: each shard keeps an LRU list and evicts its
// least-recently-used entries once the shard exceeds its share of the
// entry cap. Eviction never affects correctness — an evicted entry is
// simply recomputed on the next request — but it does mean the miss
// counters count recomputations, not distinct keys, once the cap is
// reached.
type Cache struct {
	shards [cacheShards]cacheShard
	seed   maphash.Seed // shard hash seed

	// kstore is the optional disk tier behind the kernel tier
	// (memory → disk → compute, like the plan tier); set once before
	// the cache is shared.
	kstore KernelStore

	kernelHits, kernelMisses         atomic.Uint64
	kernelDiskHits, kernelDiskMisses atomic.Uint64
	planHits, planMisses             atomic.Uint64
	diskHits, diskMisses             atomic.Uint64
	evictions                        atomic.Uint64
}

const cacheShards = 16

// DefaultCacheCap is the default bound on cached entries across the
// plan and kernel tiers. Entries are small (a few matrices or plan summaries), so the
// default is generous; it exists to keep truly large suites from
// growing the process without bound (ROADMAP: eviction policy).
const DefaultCacheCap = 1 << 16

type cacheShard struct {
	mu  sync.Mutex
	m   map[string]*list.Element
	lru *list.List // front = most recently used; values are *cacheCell
	cap int        // max entries in this shard; 0 = unbounded
}

type cacheCell struct {
	key string
	v   any
}

// NewCache returns an empty cache bounded to capEntries entries
// (0: DefaultCacheCap; negative: unbounded).
func NewCache(capEntries int) *Cache {
	if capEntries == 0 {
		capEntries = DefaultCacheCap
	}
	perShard := 0
	if capEntries > 0 {
		perShard = (capEntries + cacheShards - 1) / cacheShards
		if perShard < 1 {
			perShard = 1
		}
	}
	c := &Cache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].cap = perShard
	}
	return c
}

// shard picks key's shard with the runtime's string hash: plan keys
// run to hundreds of bytes, and a byte-at-a-time hash over them cost
// as much as the rest of a warm plan lookup.
func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%cacheShards]
}

// lookup returns the entry for key, marking it most recently used.
func (c *Cache) lookup(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheCell).v, true
}

// store inserts or refreshes key, evicting LRU entries past the cap.
func (c *Cache) store(key string, v any) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheCell).v = v
		s.lru.MoveToFront(el)
	} else {
		s.m[key] = s.lru.PushFront(&cacheCell{key: key, v: v})
		c.evict(s)
	}
	s.mu.Unlock()
}

// evict drops least-recently-used entries while the shard is over its
// cap. Called with the shard lock held.
func (c *Cache) evict(s *cacheShard) {
	if s.cap <= 0 {
		return
	}
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.m, back.Value.(*cacheCell).key)
		c.evictions.Add(1)
	}
}

// Get implements intmat.KernelCache (kernel tier): memory first, then
// the optional kernel disk store. A disk hit is promoted into memory
// and counted separately from memory hits; only a full miss sends the
// caller to recomputation.
func (c *Cache) Get(key string) (any, bool) {
	if v, ok := c.lookup(key); ok {
		c.kernelHits.Add(1)
		return v, true
	}
	if c.kstore != nil {
		if rec, ok := c.kstore.GetKernel(key); ok {
			if v, err := intmat.DecodeKernelValue(rec); err == nil {
				c.store(key, v)
				c.kernelDiskHits.Add(1)
				return v, true
			}
		}
		c.kernelDiskMisses.Add(1)
	}
	c.kernelMisses.Add(1)
	return nil, false
}

// Put implements intmat.KernelCache (kernel tier); fresh kernels are
// written through to the disk tier when one is attached.
func (c *Cache) Put(key string, v any) {
	c.store(key, v)
	if c.kstore != nil {
		if rec, ok := intmat.EncodeKernelValue(v); ok {
			c.kstore.PutKernel(key, rec)
		}
	}
}

// planSlot is a single-flight cell for one plan-tier key: the first
// worker to claim the slot computes, every other worker blocks on the
// Once and then reads the settled value.
type planSlot struct {
	once sync.Once
	val  planEntry
}

// planDo returns the plan entry for key, computing it at most once
// concurrently: workers racing on the same key share one computation.
// Below the eviction cap the miss counter equals the number of
// distinct keys exactly, whatever the worker count; past the cap an
// evicted key misses again on its next use.
//
// key is the scenario's PlanKey, used as it is: plan keys begin with
// "m=" and kernel keys with "<op>:", so the two tiers share the shards
// without a tier prefix copied onto every lookup. Compiled artifacts are views
// of plan entries (see Session.CompiledArtifact), not a tier of their
// own.
func (c *Cache) planDo(key string, compute func() planEntry) planEntry {
	s := c.shard(key)
	s.mu.Lock()
	var slot *planSlot
	if el, ok := s.m[key]; ok {
		s.lru.MoveToFront(el)
		slot = el.Value.(*cacheCell).v.(*planSlot)
		s.mu.Unlock()
		c.planHits.Add(1)
	} else {
		slot = &planSlot{}
		s.m[key] = s.lru.PushFront(&cacheCell{key: key, v: slot})
		c.evict(s)
		s.mu.Unlock()
		c.planMisses.Add(1)
	}
	slot.once.Do(func() { slot.val = compute() })
	return slot.val
}

// Len returns the number of cached entries across all tiers.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// CacheStats is a snapshot of cache effectiveness after a run.
type CacheStats struct {
	// KernelHits counts kernel-tier memory hits; KernelMisses counts
	// full misses that recomputed.
	KernelHits, KernelMisses uint64
	// KernelDiskHits/KernelDiskMisses count kernel-tier memory misses
	// served from / not found in the kernel disk store (zero without
	// one); a disk hit avoids recomputation and is counted here, not
	// in KernelHits or KernelMisses.
	KernelDiskHits, KernelDiskMisses uint64
	PlanHits, PlanMisses             uint64
	// DiskHits/DiskMisses count plan-tier memory misses that were
	// served from / not found in the disk store (zero without one).
	DiskHits, DiskMisses uint64
	// CompiledTemplates is the number of compiled selection templates
	// the session's pricer holds; CompiledTemplateHits/Misses count its
	// cache lookups and CompiledEvals the template evaluations (each
	// one a collective selection priced without schedule construction).
	CompiledTemplates                            int
	CompiledTemplateHits, CompiledTemplateMisses uint64
	CompiledEvals                                uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	Entries   int
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		KernelHits:       c.kernelHits.Load(),
		KernelMisses:     c.kernelMisses.Load(),
		KernelDiskHits:   c.kernelDiskHits.Load(),
		KernelDiskMisses: c.kernelDiskMisses.Load(),
		PlanHits:         c.planHits.Load(),
		PlanMisses:       c.planMisses.Load(),
		DiskHits:         c.diskHits.Load(),
		DiskMisses:       c.diskMisses.Load(),
		Evictions:        c.evictions.Load(),
		Entries:          c.Len(),
	}
}
