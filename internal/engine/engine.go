// Package engine runs the paper's two-step heuristic over large
// batches of scenarios concurrently. A Session owns a fixed worker
// pool that fans core.Optimize out across submitted work, and a
// shared two-tier memo cache (see Cache) that computes each distinct
// optimization problem and each distinct integer-matrix kernel once,
// so suites that reuse nests across machine/distribution/size
// variants pay the expensive exact linear algebra only once. An
// optional disk tier (see PlanStore) extends the plan cache across
// processes: lookups go memory → disk → compute, and fresh plans are
// written back, so repeated CLI sweeps and daemon restarts reuse past
// work. Results are aggregated into per-class communication counts,
// model-time totals and cache statistics.
//
// Running a batch is deterministic: results are reported in input
// order and are byte-identical whatever the worker count, whether the
// cache is enabled, and whether plans come from memory, disk or fresh
// computation, because every memoized computation is a pure function
// of its canonical key, the plan tier is single-flight, and the disk
// tier persists exactly the cost-relevant projection of each plan.
// The only timing-dependent quantity is the kernel-tier hit/miss
// split in CacheStats (two workers can race to first-compute the
// same kernel); plan-tier stats are exact below the eviction cap.
//
// Every Session entry point takes a context.Context. Cancellation is
// honored at scenario boundaries: in-flight scenarios run to
// completion (their plans stay cached), unstarted ones are refused,
// and RunStream returns the partial result with ctx.Err().
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/scenarios"
	"repro/internal/trace"
)

// Options tune a session or batch run.
type Options struct {
	// Workers is the size of the worker pool (≤0: GOMAXPROCS).
	Workers int
	// DisableCache turns the memo cache off; every scenario then
	// recomputes its heuristic from scratch (ablation / testing).
	// Disabling the memory tier also disables the disk tier.
	DisableCache bool
	// CacheCap bounds the in-memory cache entry count
	// (0: DefaultCacheCap; negative: unbounded).
	CacheCap int
	// Store is the optional disk tier behind the plan cache
	// (internal/store provides the implementation).
	Store PlanStore
	// Remote is the optional cluster tier behind the disk tier: before
	// computing a cold plan the session asks its peers for it
	// (memory → disk → peer → compute), and freshly computed plans are
	// announced back for replication. internal/server wires this to
	// the cluster router; it is nil for single-process use.
	Remote RemotePlanTier
}

// RemotePlanTier consults cluster peers for plans the local tiers
// miss, and announces fresh local computations so peers can
// replicate them. Implementations must be safe for concurrent use
// and must treat every failure as a miss — the engine always falls
// back to computing locally.
type RemotePlanTier interface {
	// FetchPlan returns the plan records a peer holds for the
	// canonical key, or ok == false when no reachable peer has them.
	FetchPlan(ctx context.Context, key string) (plans []PlanRecord, errMsg string, ok bool)
	// PlanComputed reports a plan this session just computed (after it
	// was written to the local store), so the cluster can replicate it
	// to the key's ring successors. It must not block the caller.
	PlanComputed(key string, plans []PlanRecord, errMsg string)
}

// Result is the outcome for one scenario, in input order.
type Result struct {
	Name string
	// Classes counts the scenario's communications per core.Class
	// (indexed by the class constants Local..General).
	Classes [4]int
	// ModelTime is the modeled execution time (µs) of one sweep of
	// all residual communications on the scenario's machine.
	ModelTime float64
	// Vectorizable counts plans satisfying the Section 4.5 condition.
	Vectorizable int
	// Collectives summarizes the collective algorithms the cost model
	// selected for the scenario's residual communications, as
	// "pattern=algorithm" terms with multiplicities, sorted and
	// comma-joined (e.g. "broadcast=bisection,shift=direct*3"); empty
	// when no collective operation was priced.
	Collectives string
	// Err is the optimization error, if any ("" on success).
	Err string
	// Phases is the scenario's wall-clock cost attribution (nil for
	// results rebuilt from a snapshot). It is excluded from JSON:
	// timings are run-dependent, and snapshot files must serialize
	// byte-identically across runs.
	Phases *PhaseTimes `json:"-"`
}

// BatchResult aggregates a run.
type BatchResult struct {
	Results []Result
	Workers int
	// ClassTotals sums Classes over all successful scenarios.
	ClassTotals [4]int
	// TotalModelTime sums ModelTime (µs).
	TotalModelTime float64
	// Errors counts failed scenarios.
	Errors int
	// Cache is the cache-effectiveness snapshot (zero when disabled).
	// For a long-lived Session it covers the session's lifetime up to
	// this batch, not just this batch.
	Cache CacheStats
}

// Session is a long-lived optimization context: a persistent worker
// pool plus the shared cache tiers. A CLI batch run wraps one Run
// call in a session; the resoptd daemon keeps a single session open
// so concurrent requests share the pool, the memo cache and the disk
// store. Sessions are safe for concurrent use, and any number of
// sessions (each with its own cache) may coexist in one process:
// every plan computation passes its session's cache to the kernels
// explicitly (see optimizeCtx), so no state is process-global.
type Session struct {
	cache   *Cache
	store   PlanStore
	remote  RemotePlanTier
	workers int
	tasks   chan task
	wg      sync.WaitGroup

	// pricer serves mesh collective selections and pattern costs from
	// compiled templates; nil when the cache is disabled, and every
	// selection then builds its candidate schedules cold.
	pricer *compiled.Pricer

	// Pool instrumentation (see PoolStats). busy and queued are
	// instantaneous; the totals are cumulative over the session.
	busy, queued                atomic.Int64
	scenariosDone, scenarioErrs atomic.Uint64

	// Cumulative per-phase wall-clock attribution (see PhaseTotals).
	phaseScenarios                              atomic.Uint64
	phaseComputeNs, phaseAlignNs, phaseKernelNs atomic.Int64
	phaseStoreNs, phaseCostNs, phaseTotalNs     atomic.Int64
}

type task struct {
	ctx   context.Context
	sc    *scenarios.Scenario
	idx   int
	reply chan<- indexedResult
}

type indexedResult struct {
	idx int
	res Result
}

// NewSession starts the worker pool. The caller must Close the
// session when done.
func NewSession(opts Options) *Session {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Session{workers: workers, tasks: make(chan task), remote: opts.Remote}
	if !opts.DisableCache {
		s.cache = NewCache(opts.CacheCap)
		s.store = opts.Store
		s.pricer = compiled.NewPricer()
		if ks, ok := opts.Store.(KernelStore); ok {
			// The plan store also persists kernels: wire it behind the
			// kernel memo tier so cold starts skip the linear algebra.
			s.cache.kstore = ks
		}
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for t := range s.tasks {
				// Cancellation is honored at scenario boundaries: a
				// worker never starts a scenario whose context is
				// already dead, but one mid-optimization runs to
				// completion (its plan stays cached for the retry).
				if err := t.ctx.Err(); err != nil {
					s.scenariosDone.Add(1)
					s.scenarioErrs.Add(1)
					t.reply <- indexedResult{t.idx, Result{Name: t.sc.Name, Err: err.Error()}}
					continue
				}
				s.busy.Add(1)
				res := s.runOne(t.ctx, t.sc)
				s.busy.Add(-1)
				s.scenariosDone.Add(1)
				if res.Err != "" {
					s.scenarioErrs.Add(1)
				}
				t.reply <- indexedResult{t.idx, res}
			}
		}()
	}
	return s
}

// Close drains the pool. The session must not be used after.
func (s *Session) Close() {
	close(s.tasks)
	s.wg.Wait()
}

// Workers returns the worker-pool size.
func (s *Session) Workers() int { return s.workers }

// CacheStats snapshots the session's cache counters (zero when the
// cache is disabled), including the compiled tier's template-cache
// and evaluation counters.
func (s *Session) CacheStats() CacheStats {
	st := s.cache.Stats()
	ps := s.pricer.Stats()
	st.CompiledTemplates = ps.Templates
	st.CompiledTemplateHits = ps.TemplateHits
	st.CompiledTemplateMisses = ps.TemplateMisses
	st.CompiledEvals = ps.Evals
	return st
}

// Pricer exposes the session's compiled-selection template cache for
// callers evaluating compiled artifacts directly (the lattice
// surfaces); it is nil — still valid, falling back to cold selection
// — when the cache is disabled.
func (s *Session) Pricer() *compiled.Pricer { return s.pricer }

// PoolStats is an observability snapshot of the worker pool: the
// instantaneous load (busy workers, tasks queued waiting for one) and
// cumulative throughput over the session's lifetime.
type PoolStats struct {
	// Workers is the pool size; Busy of them are mid-optimization
	// right now.
	Workers, Busy int
	// Queued counts submitted tasks not yet picked up by a worker
	// (including the one currently in hand-off).
	Queued int
	// ScenariosDone counts tasks processed by workers, including
	// scenarios refused because their context was already cancelled;
	// ScenarioErrors counts results that carried a non-empty Err
	// (refusals included). Done − Errors is successful throughput.
	ScenariosDone, ScenarioErrors uint64
}

// PoolStats snapshots the pool instrumentation. The instantaneous
// fields are racy by nature (read without stopping the pool) — fine
// for the gauges they feed.
func (s *Session) PoolStats() PoolStats {
	return PoolStats{
		Workers:        s.workers,
		Busy:           int(s.busy.Load()),
		Queued:         int(s.queued.Load()),
		ScenariosDone:  s.scenariosDone.Load(),
		ScenarioErrors: s.scenarioErrs.Load(),
	}
}

// Optimize runs one scenario through the shared pool and cache
// tiers. It returns ctx.Err() if the context dies before a worker
// picks the scenario up; a cancellation after pickup is reported in
// Result.Err instead (the worker refuses dead work at the scenario
// boundary).
func (s *Session) Optimize(ctx context.Context, sc *scenarios.Scenario) (Result, error) {
	// A context already dead never reaches the pool: the select below
	// picks at random when an idle worker is also ready to receive.
	if err := ctx.Err(); err != nil {
		return Result{Name: sc.Name, Err: err.Error()}, err
	}
	reply := make(chan indexedResult, 1)
	s.queued.Add(1)
	select {
	case s.tasks <- task{ctx: ctx, sc: sc, reply: reply}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		return Result{Name: sc.Name, Err: ctx.Err().Error()}, ctx.Err()
	}
	return (<-reply).res, nil
}

// Run optimizes and costs every scenario of the batch. On
// cancellation it returns the partial BatchResult alongside ctx.Err()
// (see RunStream).
func (s *Session) Run(ctx context.Context, batch []scenarios.Scenario) (*BatchResult, error) {
	return s.RunStream(ctx, batch, nil)
}

// RunStream is Run with incremental delivery: emit (when non-nil) is
// called once per scenario, in input order, as soon as that result
// and all its predecessors are done — workers keep computing ahead
// while earlier scenarios are still in flight. The returned
// BatchResult is identical to Run's.
//
// Cancelling ctx stops the run at the next scenario boundary: no new
// scenario is submitted to the pool, already-submitted scenarios
// either finish or are refused by their worker, emission stops, and
// RunStream returns the partial BatchResult together with ctx.Err().
// Scenarios that never ran carry Err set to the context error and
// count toward Errors. RunStream never leaks goroutines: the feeder
// exits on cancellation and the worker pool is owned by the session.
func (s *Session) RunStream(ctx context.Context, batch []scenarios.Scenario, emit func(Result)) (*BatchResult, error) {
	b := &BatchResult{Results: make([]Result, len(batch)), Workers: s.workers}
	reply := make(chan indexedResult, len(batch))
	// The feeder reports how many tasks it managed to submit before
	// the context died, so the collector knows how many replies to
	// await (workers reply exactly once per submitted task).
	submitted := make(chan int, 1)
	go func() {
		n := 0
		defer func() { submitted <- n }()
		for i := range batch {
			s.queued.Add(1)
			select {
			case s.tasks <- task{ctx: ctx, sc: &batch[i], idx: i, reply: reply}:
				s.queued.Add(-1)
				n++
			case <-ctx.Done():
				s.queued.Add(-1)
				return
			}
		}
	}()
	done := make([]bool, len(batch))
	next, received, total := 0, 0, -1
	for total < 0 || received < total {
		select {
		case n := <-submitted:
			total = n
		case r := <-reply:
			received++
			b.Results[r.idx] = r.res
			done[r.idx] = true
			for next < len(batch) && done[next] {
				if emit != nil && ctx.Err() == nil {
					emit(b.Results[next])
				}
				next++
			}
		}
	}
	if err := ctx.Err(); err != nil {
		for i := range b.Results {
			if !done[i] {
				b.Results[i] = Result{Name: batch[i].Name, Err: err.Error()}
			}
		}
	}

	for i := range b.Results {
		r := &b.Results[i]
		if r.Err != "" {
			b.Errors++
			continue
		}
		for c, n := range r.Classes {
			b.ClassTotals[c] += n
		}
		b.TotalModelTime += r.ModelTime
	}
	b.Cache = s.CacheStats()
	return b, ctx.Err()
}

// Run optimizes and costs every scenario of the batch in a one-shot
// session (uncancellable; use a Session for context control).
func Run(batch []scenarios.Scenario, opts Options) *BatchResult {
	s := NewSession(opts)
	defer s.Close()
	b, _ := s.Run(context.Background(), batch)
	return b
}

// runOne optimizes and costs one scenario, recording the phase
// breakdown (Result.Phases, session totals) and — when ctx carries an
// active trace — a "scenario" span with store/optimize children and
// the chosen collectives as its "collectives" attribute.
func (s *Session) runOne(ctx context.Context, sc *scenarios.Scenario) Result {
	t0 := time.Now()
	ctx, sp := trace.StartSpan(ctx, "scenario")
	sp.Set("scenario", sc.Name)
	ph := &PhaseTimes{PlanSource: "compute"}
	out := Result{Name: sc.Name, Phases: ph}
	var ent planEntry
	if s.cache != nil {
		// If another worker is computing this key, planDo blocks on its
		// single-flight slot and the closure never runs: the plans were
		// served from (in-flight) memory as far as this scenario is
		// concerned, and the defaults below stand.
		ph.PlanSource = "memory"
		ent = s.cache.planDo(sc.PlanKey(), func() planEntry {
			e, src, storeUs := computeOrLoad(ctx, sc, s.cache, s.store, s.remote)
			ph.PlanSource, ph.StoreUs = src, storeUs
			return e
		})
	} else {
		ent = optimizeCtx(ctx, sc, nil)
	}
	ph.ComputeUs, ph.AlignUs = ent.computeUs, ent.alignUs
	ph.KernelUs, ph.KernelOps = ent.kernelUs, ent.kernelOps
	sp.Set("plan_source", ph.PlanSource)
	if ent.err != "" {
		out.Err = ent.err
		ph.TotalUs = usSince(t0)
		s.addPhases(ph)
		sp.Set("error", ent.err).End()
		return out
	}
	costStart := time.Now()
	pt := compiled.EvalPlans(ent.plans, s.pricer, sc.Machine, sc.Dist, sc.N, sc.ElemBytes)
	out.Classes, out.ModelTime, out.Vectorizable, out.Collectives = pt.Classes, pt.ModelTime, pt.Vectorizable, pt.Collectives
	ph.CostUs = usSince(costStart)
	ph.TotalUs = usSince(t0)
	s.addPhases(ph)
	if pt.Collectives != "" {
		sp.Set("collectives", pt.Collectives)
	}
	sp.End()
	return out
}

// collectiveTotals re-aggregates the per-scenario Collectives
// summaries of a batch into term → total multiplicity.
func collectiveTotals(results []Result) map[string]int {
	totals := map[string]int{}
	for _, r := range results {
		if r.Err != "" || r.Collectives == "" {
			continue
		}
		for _, term := range strings.Split(r.Collectives, ",") {
			n := 1
			if i := strings.IndexByte(term, '*'); i >= 0 {
				fmt.Sscanf(term[i+1:], "%d", &n)
				term = term[:i]
			}
			totals[term] += n
		}
	}
	return totals
}

// computeOrLoad fills a plan-tier memory miss: consult the disk store
// first, then the cluster's remote tier, and recompute only when both
// miss (or serve an undecodable record). Fresh plans are written back
// to the store and announced to the remote tier so the next process —
// or the next peer — starts warm. It reports which tier produced the
// entry ("disk", "peer" or "compute") and the time spent talking to
// the store/peers, and records "store.lookup" / "cluster.fetch" spans
// when ctx carries a trace.
func computeOrLoad(ctx context.Context, sc *scenarios.Scenario, cache *Cache, store PlanStore, remote RemotePlanTier) (planEntry, string, float64) {
	key := sc.PlanKey()
	var storeUs float64
	if store != nil {
		t0 := time.Now()
		_, lsp := trace.StartSpan(ctx, "store.lookup")
		lsp.Set("tier", "plans")
		if recs, errMsg, ok := store.GetPlan(key); ok {
			if ent, err := fromRecords(recs, errMsg); err == nil {
				cache.diskHits.Add(1)
				lsp.Set("result", "hit").End()
				return ent, "disk", usSince(t0)
			}
		}
		cache.diskMisses.Add(1)
		lsp.Set("result", "miss").End()
		storeUs = usSince(t0)
	}
	if remote != nil {
		t0 := time.Now()
		_, fsp := trace.StartSpan(ctx, "cluster.fetch")
		if recs, errMsg, ok := remote.FetchPlan(ctx, key); ok {
			if ent, err := fromRecords(recs, errMsg); err == nil {
				fsp.Set("result", "hit").End()
				storeUs += usSince(t0)
				if store != nil {
					// Write-through so the peer-served plan survives a
					// restart and future lookups stay local.
					w0 := time.Now()
					store.PutPlan(key, recs, errMsg)
					storeUs += usSince(w0)
				}
				return ent, "peer", storeUs
			}
		}
		fsp.Set("result", "miss").End()
		storeUs += usSince(t0)
	}
	ent := optimizeCtx(ctx, sc, cache)
	recs, errMsg := toRecords(ent)
	if store != nil {
		t0 := time.Now()
		store.PutPlan(key, recs, errMsg)
		storeUs += usSince(t0)
	}
	if remote != nil {
		remote.PlanComputed(key, recs, errMsg)
	}
	return ent, "compute", storeUs
}

// Report renders a human-readable batch summary: aggregate class
// counts, model time, error count, cache effectiveness, and the most
// expensive scenarios.
func (b *BatchResult) Report() string {
	var s strings.Builder
	fmt.Fprintf(&s, "batch: %d scenarios on %d workers\n", len(b.Results), b.Workers)
	fmt.Fprintf(&s, "communications: %d local, %d macro, %d decomposed, %d general\n",
		b.ClassTotals[core.Local], b.ClassTotals[core.MacroComm],
		b.ClassTotals[core.Decomposed], b.ClassTotals[core.General])
	fmt.Fprintf(&s, "total model time: %.0f µs", b.TotalModelTime)
	if b.Errors > 0 {
		fmt.Fprintf(&s, "   (%d scenarios failed)", b.Errors)
	}
	s.WriteByte('\n')
	if totals := collectiveTotals(b.Results); len(totals) > 0 {
		terms := make([]string, 0, len(totals))
		for k := range totals {
			terms = append(terms, k)
		}
		sort.Strings(terms)
		s.WriteString("collectives:")
		for _, k := range terms {
			fmt.Fprintf(&s, " %s×%d", k, totals[k])
		}
		s.WriteByte('\n')
	}
	if b.Cache != (CacheStats{}) {
		c := b.Cache
		fmt.Fprintf(&s, "cache: plan %d/%d hits, kernel %d/%d hits, %d entries",
			c.PlanHits, c.PlanHits+c.PlanMisses,
			c.KernelHits, c.KernelHits+c.KernelMisses, c.Entries)
		if c.Evictions > 0 {
			fmt.Fprintf(&s, ", %d evicted", c.Evictions)
		}
		s.WriteByte('\n')
		if c.DiskHits+c.DiskMisses > 0 {
			fmt.Fprintf(&s, "store: %d/%d plan loads served from disk\n",
				c.DiskHits, c.DiskHits+c.DiskMisses)
		}
		if c.KernelDiskHits+c.KernelDiskMisses > 0 {
			fmt.Fprintf(&s, "store: %d/%d kernel loads served from disk\n",
				c.KernelDiskHits, c.KernelDiskHits+c.KernelDiskMisses)
		}
	}
	top := make([]int, 0, len(b.Results))
	for i, r := range b.Results {
		if r.Err == "" {
			top = append(top, i)
		}
	}
	sort.Slice(top, func(x, y int) bool {
		return b.Results[top[x]].ModelTime > b.Results[top[y]].ModelTime
	})
	if len(top) > 5 {
		top = top[:5]
	}
	if len(top) > 0 {
		s.WriteString("most expensive scenarios:\n")
		for _, i := range top {
			r := b.Results[i]
			fmt.Fprintf(&s, "  %-40s %10.0f µs  (%dL %dM %dD %dG)\n", r.Name, r.ModelTime,
				r.Classes[core.Local], r.Classes[core.MacroComm],
				r.Classes[core.Decomposed], r.Classes[core.General])
		}
	}
	return s.String()
}
