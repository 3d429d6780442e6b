package server

import (
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
)

// observability is the server's metric surface: one registry holding
// the HTTP-layer instruments plus func-backed mirrors of the engine,
// store and job counters. Everything is registered once in New, so
// the /metrics exposition is complete from the first scrape — a
// counter that has never moved still reports 0 instead of being
// absent (absent series break Prometheus rate() over restarts).
type observability struct {
	reg *metrics.Registry

	requests  metrics.CounterVec   // resoptd_http_requests_total{endpoint,code}
	latency   metrics.HistogramVec // resoptd_http_request_duration_seconds{endpoint}
	inFlight  metrics.Gauge        // resoptd_http_in_flight_requests
	bytesIn   metrics.CounterVec   // resoptd_http_request_bytes_total{endpoint}
	bytesOut  metrics.CounterVec   // resoptd_http_response_bytes_total{endpoint}
	sweepRuns metrics.Counter      // resoptd_sweeper_runs_total
	sweepJobs metrics.Counter      // resoptd_sweeper_jobs_pruned_total

	// Cluster families (registered only when the daemon is clustered).
	forwards       metrics.CounterVec   // resopt_cluster_forwards_total{peer,direction}
	forwardLatency metrics.HistogramVec // resopt_cluster_forward_seconds{peer}
}

// newObservability builds the registry for one server and registers
// every metric family against its live data sources.
func newObservability(s *Server) *observability {
	reg := metrics.NewRegistry()
	o := &observability{
		reg: reg,
		requests: reg.NewCounterVec("resoptd_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "endpoint", "code"),
		latency: reg.NewHistogramVec("resoptd_http_request_duration_seconds",
			"HTTP request latency, by route pattern.", nil, "endpoint"),
		inFlight: reg.NewGauge("resoptd_http_in_flight_requests",
			"HTTP requests currently being served."),
		bytesIn: reg.NewCounterVec("resoptd_http_request_bytes_total",
			"Request body bytes read, by route pattern.", "endpoint"),
		bytesOut: reg.NewCounterVec("resoptd_http_response_bytes_total",
			"Response body bytes written, by route pattern.", "endpoint"),
		sweepRuns: reg.NewCounter("resoptd_sweeper_runs_total",
			"Background sweeper ticks completed."),
		sweepJobs: reg.NewCounter("resoptd_sweeper_jobs_pruned_total",
			"Finished jobs retired by the background sweeper."),
	}
	reg.NewCounterFunc("resoptd_http_rate_limited_total",
		"Requests rejected by the per-client rate limiter.",
		func() uint64 { return s.rateLimited.Load() })

	// Go runtime telemetry (resopt_go_*): goroutines, heap, GC and
	// scheduler latency, read from runtime/metrics once per scrape.
	metrics.RegisterGoRuntime(reg)

	// Build identity, the standard always-1 info gauge.
	reg.NewGaugeVec("resoptd_build_info",
		"Build metadata; always 1. Version is stamped via ldflags.",
		"version", "goversion").
		With(buildinfo.Version, runtime.Version()).Set(1)

	// Engine phase attribution: where optimization wall-clock goes.
	phase := reg.NewCounterVec("resopt_engine_phase_time_us_total",
		"Cumulative engine wall-clock attributed to optimizer phases, in microseconds.", "phase")
	totals := s.session.PhaseTotals
	phase.WithFunc(func() uint64 { return uint64(totals().ComputeUs) }, "compute")
	phase.WithFunc(func() uint64 { return uint64(totals().AlignUs) }, "align")
	phase.WithFunc(func() uint64 { return uint64(totals().KernelUs) }, "kernel")
	phase.WithFunc(func() uint64 { return uint64(totals().StoreUs) }, "store")
	phase.WithFunc(func() uint64 { return uint64(totals().CostUs) }, "cost")
	phase.WithFunc(func() uint64 { return uint64(totals().TotalUs) }, "total")

	// Job lifecycle gauges, refreshed per scrape.
	jobs := reg.NewGaugeVec("resoptd_jobs", "Async batch jobs by lifecycle state.", "state")
	queued, running := jobs.With("queued"), jobs.With("running")
	done, cancelled := jobs.With("done"), jobs.With("cancelled")
	reg.OnCollect(func() {
		st := s.jobs.stats()
		queued.Set(float64(st.Queued))
		running.Set(float64(st.Running))
		done.Set(float64(st.Done))
		cancelled.Set(float64(st.Cancelled))
	})

	// Engine worker pool.
	pool := s.session.PoolStats
	reg.NewGaugeFunc("resopt_engine_workers", "Worker pool size.",
		func() float64 { return float64(pool().Workers) })
	reg.NewGaugeFunc("resopt_engine_busy_workers", "Workers currently optimizing a scenario.",
		func() float64 { return float64(pool().Busy) })
	reg.NewGaugeFunc("resopt_engine_queue_depth", "Submitted scenarios waiting for a worker.",
		func() float64 { return float64(pool().Queued) })
	reg.NewCounterFunc("resopt_engine_scenarios_total", "Scenarios processed by the worker pool.",
		func() uint64 { return pool().ScenariosDone })
	reg.NewCounterFunc("resopt_engine_scenario_errors_total", "Scenario results carrying an error (cancellations included).",
		func() uint64 { return pool().ScenarioErrors })

	// Engine memo-cache tiers, mirrored from CacheStats: plan = whole
	// heuristic results, kernel = exact linear algebra, *_disk = the
	// store tier behind each, compiled_template = the session pricer.
	hits := reg.NewCounterVec("resopt_engine_cache_hits_total",
		"Memo-cache hits by tier.", "tier")
	misses := reg.NewCounterVec("resopt_engine_cache_misses_total",
		"Memo-cache misses by tier.", "tier")
	cache := s.session.CacheStats
	hits.WithFunc(func() uint64 { return cache().PlanHits }, "plan")
	misses.WithFunc(func() uint64 { return cache().PlanMisses }, "plan")
	hits.WithFunc(func() uint64 { return cache().KernelHits }, "kernel")
	misses.WithFunc(func() uint64 { return cache().KernelMisses }, "kernel")
	hits.WithFunc(func() uint64 { return cache().DiskHits }, "plan_disk")
	misses.WithFunc(func() uint64 { return cache().DiskMisses }, "plan_disk")
	hits.WithFunc(func() uint64 { return cache().KernelDiskHits }, "kernel_disk")
	misses.WithFunc(func() uint64 { return cache().KernelDiskMisses }, "kernel_disk")
	hits.WithFunc(func() uint64 { return cache().CompiledTemplateHits }, "compiled_template")
	misses.WithFunc(func() uint64 { return cache().CompiledTemplateMisses }, "compiled_template")
	reg.NewCounterFunc("resopt_engine_compiled_evals_total",
		"Selection-template evaluations by the session pricer (one per priced lattice point selection).",
		func() uint64 { return cache().CompiledEvals })
	reg.NewGaugeFunc("resopt_engine_compiled_templates",
		"Compiled selection templates held by the session pricer.",
		func() float64 { return float64(cache().CompiledTemplates) })
	reg.NewCounterFunc("resopt_engine_cache_evictions_total", "Entries dropped by the LRU bound.",
		func() uint64 { return cache().Evictions })
	reg.NewGaugeFunc("resopt_engine_cache_entries", "Entries resident in the memo cache.",
		func() float64 { return float64(cache().Entries) })

	// Resolved-suite cache.
	reg.NewCounterFunc("resoptd_suite_cache_hits_total", "Batch specs resolved from the suite cache.",
		func() uint64 { return s.resolver.stats().Hits })
	reg.NewCounterFunc("resoptd_suite_cache_misses_total", "Batch specs that regenerated their suite.",
		func() uint64 { return s.resolver.stats().Misses })

	if s.store != nil {
		o.registerStore(s.store)
	}
	if s.clusterRt != nil {
		o.registerCluster(s.clusterRt)
	}
	return o
}

// registerCluster adds the clustered-serving families: forward
// traffic by peer and direction, forward latency, peer liveness
// refreshed per scrape, and the replication/single-flight counters.
// Every per-peer child is pre-seeded so the exposition carries the
// full fleet at 0 from the first scrape (the CI cluster smoke greps
// resopt_cluster_forwards_total before and after traffic).
func (o *observability) registerCluster(rt *clusterRuntime) {
	reg := o.reg
	o.forwards = reg.NewCounterVec("resopt_cluster_forwards_total",
		"Optimize requests proxied between cluster nodes, by peer and direction (out = sent to the key's owner, in = answered for a peer).",
		"peer", "direction")
	o.forwardLatency = reg.NewHistogramVec("resopt_cluster_forward_seconds",
		"Latency of forwarded optimize requests, by owning peer.", nil, "peer")
	peerUp := reg.NewGaugeVec("resopt_cluster_peer_up",
		"Peer liveness as tracked by this node (1 = believed up).", "peer")
	upGauges := make(map[string]metrics.Gauge, len(rt.peers))
	for _, id := range rt.cl.Peers() {
		o.forwards.With(id, "out")
		o.forwards.With(id, "in")
		o.forwardLatency.With(id)
		upGauges[id] = peerUp.With(id)
	}
	reg.OnCollect(func() {
		for _, st := range rt.cl.Health().Status() {
			if g, ok := upGauges[st.Node]; ok {
				if st.Up {
					g.Set(1)
				} else {
					g.Set(0)
				}
			}
		}
	})
	reg.NewGaugeFunc("resopt_cluster_ring_size", "Cluster members (self included).",
		func() float64 { return float64(rt.cl.Size()) })
	reg.NewCounterFunc("resopt_cluster_forward_fallbacks_total",
		"Forwards that fell back to local compute because the owner was down or unreachable.",
		func() uint64 { return rt.forwardFallbacks.Load() })
	reg.NewCounterFunc("resopt_cluster_peer_plan_hits_total",
		"Cold plans served from a replica peer's store instead of recomputed.",
		func() uint64 { return rt.peerPlanHits.Load() })
	reg.NewCounterFunc("resopt_cluster_plans_replicated_total",
		"Finished plans pushed to ring successors.",
		func() uint64 { return rt.plansReplicated.Load() })
	reg.NewCounterFunc("resopt_cluster_snapshots_replicated_total",
		"Recorded snapshots pushed to replica peers.",
		func() uint64 { return rt.snapshotsReplicated.Load() })
}

// registerStore adds the disk-tier families: traffic counters
// mirrored from store.Stats, per-tier object/byte gauges walked at
// scrape time, and cumulative GC results.
func (o *observability) registerStore(st *store.Store) {
	reg := o.reg
	puts := reg.NewCounterVec("resopt_store_puts_total", "Objects written, by tier.", "tier")
	getHits := reg.NewCounterVec("resopt_store_get_hits_total", "Disk lookups served, by tier.", "tier")
	getMisses := reg.NewCounterVec("resopt_store_get_misses_total", "Disk lookups missed, by tier.", "tier")
	puts.WithFunc(func() uint64 { return st.Stats().PlanPuts }, "plans")
	getHits.WithFunc(func() uint64 { return st.Stats().PlanGetHits }, "plans")
	getMisses.WithFunc(func() uint64 { return st.Stats().PlanGetMisses }, "plans")
	puts.WithFunc(func() uint64 { return st.Stats().KernelPuts }, "kernels")
	getHits.WithFunc(func() uint64 { return st.Stats().KernelGetHits }, "kernels")
	getMisses.WithFunc(func() uint64 { return st.Stats().KernelGetMisses }, "kernels")
	reg.NewCounterFunc("resopt_store_warnings_total",
		"Non-fatal store problems (corrupt files skipped, failed writes).",
		func() uint64 { return st.Stats().Warnings })

	objects := reg.NewGaugeVec("resopt_store_objects", "Objects on disk, by tier.", "tier")
	bytes := reg.NewGaugeVec("resopt_store_bytes", "Bytes on disk, by tier.", "tier")
	tierGauges := make(map[string][2]metrics.Gauge, 4)
	for _, tier := range store.Tiers() {
		tierGauges[tier] = [2]metrics.Gauge{objects.With(tier), bytes.With(tier)}
	}
	reg.OnCollect(func() {
		for tier, sz := range st.TierSizes() {
			g := tierGauges[tier]
			g[0].Set(float64(sz.Files))
			g[1].Set(float64(sz.Bytes))
		}
	})

	reg.NewCounterFunc("resopt_store_gc_sweeps_total", "GC sweeps completed (dry runs excluded).",
		func() uint64 { return st.GCTotals().Sweeps })
	removed := reg.NewCounterVec("resopt_store_gc_removed_total", "Files removed by GC, by criterion.", "criterion")
	removed.WithFunc(func() uint64 { return st.GCTotals().RemovedAge }, "age")
	removed.WithFunc(func() uint64 { return st.GCTotals().RemovedLRU }, "lru")
	removed.WithFunc(func() uint64 { return st.GCTotals().RemovedTemp }, "temp")
	reg.NewCounterFunc("resopt_store_gc_bytes_freed_total", "Bytes reclaimed by GC.",
		func() uint64 { return uint64(st.GCTotals().BytesFreed) })
}

// OpsHandler returns the operational endpoint set, meant for a
// separate listener (resoptd -ops-addr) that is not exposed to API
// clients:
//
//	GET /metrics           Prometheus text exposition of every family
//	                       (OpenMetrics with exemplars when negotiated)
//	GET /metrics/cluster   the fleet's expositions federated into one,
//	                       distinguished by an injected node label
//	GET /healthz           liveness/readiness probe: {"status":"ok",...}
//	                       with the stamped build version; clustered, it
//	                       reports peers_up/peers_total and degrades the
//	                       status (still 200) when any peer is down
//	GET /debug/traces      recent request traces (?min=50ms&limit=10)
//	GET /debug/traces/{id} one trace as a JSON span tree — clustered,
//	                       stitched across every node the request
//	                       touched (?local=1 for this node's spans only)
//	GET /debug/pprof/*     the standard runtime profiles
//
// pprof is wired explicitly rather than through the side effect of
// importing net/http/pprof (which registers on http.DefaultServeMux —
// a mux this server never serves).
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.obs.reg.Handler())
	mux.HandleFunc("GET /metrics/cluster", s.handleMetricsCluster)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		body := s.healthzBody()
		body["go"] = runtime.Version()
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "resoptd ops: GET /metrics, GET /healthz, GET /debug/traces[/{id}], GET /debug/pprof/\n")
	})
	return mux
}

// Registry exposes the server's metric registry (tests, embedders).
func (s *Server) Registry() *metrics.Registry { return s.obs.reg }

// instrument wraps the API handler chain with the HTTP-layer
// metrics: in-flight gauge, per-endpoint request/latency/byte
// accounting. It must be outermost so rate-limited rejections are
// observed too.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.obs.inFlight.Inc()
		defer s.obs.inFlight.Dec()
		cr := &countingReadCloser{rc: r.Body}
		r.Body = cr
		// Under traced, w is already the status- and byte-counting
		// wrapper, and nothing has been written through it yet.
		ow, ok := w.(*obsResponseWriter)
		if !ok {
			ow = &obsResponseWriter{ResponseWriter: w}
		}
		next.ServeHTTP(ow, r)
		endpoint := endpointLabel(r)
		s.obs.requests.With(endpoint, strconv.Itoa(ow.statusCode())).Inc()
		// Exemplar: link the latency bucket to this request's trace, so
		// a scraper ingesting OpenMetrics can jump from a histogram
		// spike to /debug/traces/{id}.
		s.obs.latency.With(endpoint).ObserveWithExemplar(time.Since(start).Seconds(), trace.FromContext(r.Context()).TraceID())
		s.obs.bytesIn.With(endpoint).Add(uint64(cr.n))
		s.obs.bytesOut.With(endpoint).Add(uint64(ow.bytes))
	})
}

// endpointLabel maps a served request to a bounded metric label: the
// mux pattern that matched (path part only — the method is implied by
// the route set), or "(unmatched)" for 404s and requests rejected
// before routing (rate limiting). Raw URL paths are never used as
// labels; they are attacker-controlled and of unbounded cardinality.
func endpointLabel(r *http.Request) string {
	pat := r.Pattern
	if pat == "" {
		return "(unmatched)"
	}
	if _, path, ok := strings.Cut(pat, " "); ok {
		return path
	}
	return pat
}

// countingReadCloser counts the request-body bytes actually read.
type countingReadCloser struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReadCloser) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReadCloser) Close() error { return c.rc.Close() }

// obsResponseWriter captures status and body size. It implements
// http.Flusher unconditionally (delegating when the underlying writer
// supports it), because the NDJSON batch stream flushes per line.
type obsResponseWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *obsResponseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *obsResponseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *obsResponseWriter) statusCode() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}
