// Package server exposes the optimization engine as an HTTP service
// (the resoptd daemon). One long-lived engine.Session backs every
// request: concurrent clients share the worker pool, the in-memory
// memo cache and the optional disk store, so a nest optimized once —
// by anyone, in any process that shared the store — is served from
// cache thereafter (the ResFed-style compile-once/reuse-many model).
//
// The wire contract lives in internal/api and is served under the
// versioned /v1 prefix:
//
//	POST   /v1/optimize          one nest → classification counts + model time
//	POST   /v1/batch             suite spec → NDJSON stream of per-scenario
//	                             results ending in a summary line; specs may
//	                             name a stored snapshot to re-run and diff it
//	POST   /v1/lattice           nest × capacity-planning grid → NDJSON rows
//	                             of per-point model costs and switch points,
//	                             priced off the nest's compiled artifact
//	POST   /v1/jobs              submit a batch spec as an async job
//	GET    /v1/jobs              list jobs, most recent first
//	GET    /v1/jobs/{id}         poll one job
//	DELETE /v1/jobs/{id}         cancel a queued/running job
//	GET    /v1/jobs/{id}/results full results once the job finished
//	GET    /v1/snapshots         stored snapshots (re-runnable ones flagged)
//	GET    /v1/stats             cache, store, suite-cache, request and job
//	                             counters
//	GET    /v1/cluster/stats     every fleet member's stats plus an
//	                             aggregated rollup (standalone: just self)
//
// The pre-/v1 unversioned endpoints (POST /optimize, POST /batch,
// GET /stats) are gone and answer 404.
//
// Request contexts are threaded into the engine: a client that
// disconnects (or times out) cancels its in-flight work at the next
// scenario boundary. Optional per-client token-bucket rate limiting
// (Options.RatePerSec) answers excess traffic with a typed 429.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/trace"
)

// Options configure a server.
type Options struct {
	// Workers sizes the shared engine pool (≤0: GOMAXPROCS).
	Workers int
	// CacheCap bounds the in-memory cache (0: engine default).
	CacheCap int
	// Store is the optional disk tier shared by every request; it also
	// enables the snapshot endpoints and snapshot-named batch specs.
	Store *store.Store
	// RatePerSec enables per-client token-bucket rate limiting at this
	// sustained request rate (0: disabled).
	RatePerSec float64
	// RateBurst is the bucket depth (0: twice the rate, minimum 1).
	RateBurst int
	// RateKey selects what identifies a client for rate limiting:
	// RateKeyIP (the default), RateKeyAPIKey (X-Api-Key header) or
	// RateKeyForwarded (first X-Forwarded-For hop, for daemons behind
	// a trusted proxy). Unknown modes panic in New; resoptd validates
	// its -rate-key flag first.
	RateKey string
	// JobsCap bounds retained finished jobs (0: DefaultJobsCap).
	JobsCap int
	// Logger receives the structured request and job-lifecycle logs
	// (nil: discard).
	Logger *slog.Logger
	// TraceSlow promotes requests at least this slow to a warning log
	// carrying their full span tree (0: disabled).
	TraceSlow time.Duration
	// TraceCap bounds the in-memory trace ring (0: the recorder
	// default).
	TraceCap int
	// Cluster, when set, runs this daemon as one node of a static
	// cluster: optimize requests are routed to key owners over the
	// consistent ring, cold plans consult replica peers before
	// computing, and finished plans/snapshots replicate to ring
	// successors (see cluster.go).
	Cluster *cluster.Cluster
	// ClusterProbeInterval paces the background peer-health sweep
	// (0: the cluster package default; < 0: no background prober —
	// health then moves only on live traffic, which tests use for
	// determinism).
	ClusterProbeInterval time.Duration
}

// Server owns the shared session. Create with New, serve via
// Handler, and Close on shutdown.
type Server struct {
	session  *engine.Session
	store    *store.Store
	mux      *http.ServeMux
	limiter  *rateLimiter
	rateKey  func(*http.Request) string
	resolver *suiteResolver
	jobs     *jobManager
	jobWG    sync.WaitGroup
	obs      *observability

	tracer    *trace.Recorder
	logger    *slog.Logger
	traceSlow time.Duration

	// clusterRt is the cluster routing state (nil when standalone).
	clusterRt *clusterRuntime

	// Background sweeper state (see StartSweeper).
	sweepOpts atomic.Pointer[SweepOptions]
	sweepStop chan struct{}
	sweepWG   sync.WaitGroup

	optimizes, batches, lattices, jobReqs, rateLimited atomic.Uint64
}

// New starts the shared engine session and builds the route table.
func New(opts Options) *Server {
	eo := engine.Options{Workers: opts.Workers, CacheCap: opts.CacheCap}
	if opts.Store != nil {
		eo.Store = opts.Store
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		store:     opts.Store,
		mux:       http.NewServeMux(),
		resolver:  newSuiteResolver(suiteCacheCap),
		jobs:      newJobManager(opts.JobsCap, opts.Store),
		sweepStop: make(chan struct{}),
		tracer:    trace.NewRecorder(opts.TraceCap),
		logger:    logger,
		traceSlow: opts.TraceSlow,
	}
	if opts.Cluster != nil {
		s.clusterRt = newClusterRuntime(opts.Cluster)
		// The engine consults replica peers between its disk tier and a
		// cold computation, and announces finished plans for
		// replication: cross-replica single-flight.
		eo.Remote = remoteTier{s}
		// Every recorded span carries this node's identity, so merged
		// cross-node trees can attribute each span to its member.
		s.tracer.SetNode(opts.Cluster.Self())
	}
	s.session = engine.NewSession(eo)
	s.obs = newObservability(s)
	if opts.RatePerSec > 0 {
		keyFn, err := rateKeyFunc(opts.RateKey)
		if err != nil {
			panic(err) // invalid enum is a programmer error; flags validate first
		}
		s.limiter = newRateLimiter(opts.RatePerSec, opts.RateBurst)
		s.rateKey = keyFn
	}

	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/lattice", s.handleLattice)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	s.mux.HandleFunc("GET /v1/snapshots", s.handleSnapshots)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	// The fleet aggregation is routed unconditionally: standalone
	// daemons answer with themselves as the only member, so dashboards
	// need not care whether a target is clustered.
	s.mux.HandleFunc("GET /v1/cluster/stats", s.handleClusterStats)

	// Liveness on the API listener too: peers probe each other's
	// /healthz, and a load balancer in front of a cluster needs it on
	// the public port (the ops listener keeps its own copy).
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.healthzBody())
	})
	if s.clusterRt != nil {
		// Cluster-internal endpoints, only routed when clustered
		// (standalone daemons 404 them): plan/snapshot replication, plus
		// the local-only trace and metrics reads behind distributed trace
		// assembly and metrics federation.
		s.mux.HandleFunc("GET /v1/plans/{addr}", s.handlePlanGet)
		s.mux.HandleFunc("PUT /v1/plans/{addr}", s.handlePlanPut)
		s.mux.HandleFunc("PUT /v1/snapshots/{name}", s.handleSnapshotPut)
		s.mux.HandleFunc("GET /debug/traces/{id}", s.handlePeerTrace)
		s.mux.HandleFunc("GET /metrics/peer", s.handlePeerMetrics)
		s.startProber(opts.ClusterProbeInterval)
	}

	s.mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "resoptd /v1: POST /v1/optimize, POST /v1/batch, POST /v1/lattice, POST|GET /v1/jobs, GET /v1/jobs/{id}[/results], GET /v1/snapshots, GET /v1/stats\n")
	})
	return s
}

// Handler returns the HTTP handler: request tracing (outermost, so
// everything below runs under the root span), metric instrumentation,
// version stamping and rate limiting around the route table.
func (s *Server) Handler() http.Handler {
	return s.traced(s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, api.Version)
		// Intra-cluster traffic (authenticated by the forward header
		// naming a known peer) and health probes bypass the public rate
		// limit: throttling a peer's forward would double-charge the
		// same client request, and throttled probes read as an outage.
		if s.limiter != nil && r.URL.Path != "/healthz" && !s.isPeerRequest(r) {
			if retry, ok := s.limiter.allow(s.rateKey(r), time.Now()); !ok {
				s.rateLimited.Add(1)
				w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())+1))
				s.writeError(w, api.Errorf(http.StatusTooManyRequests, api.CodeRateLimited,
					"rate limit exceeded; retry in %s", retry.Round(time.Millisecond)))
				return
			}
		}
		s.mux.ServeHTTP(w, r)
	})))
}

// Close stops the background sweeper, cancels outstanding jobs, waits
// for their runs to drain, and shuts the shared session down. Call
// only after the HTTP server has stopped serving requests.
func (s *Server) Close() {
	close(s.sweepStop)
	s.sweepWG.Wait()
	s.jobs.shutdown()
	s.jobWG.Wait()
	if s.clusterRt != nil && s.clusterRt.probeCancel != nil {
		s.clusterRt.probeCancel()
	}
	s.session.Close()
	if s.clusterRt != nil {
		// After the session drains no worker announces new plans; wait
		// out the in-flight replication fan-outs and the prober.
		s.clusterRt.wg.Wait()
	}
}

// maxBody bounds request bodies; nest sources are tiny.
const maxBody = 1 << 20

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.optimizes.Add(1)
	var req api.OptimizeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		s.writeError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	sc, aerr := scenarioFromRequest(&req)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	if s.clusterRt != nil {
		if from := r.Header.Get(api.ForwardHeader); from != "" {
			// Already forwarded once: answer locally no matter who owns
			// the key (the loop guard).
			s.noteForwardedIn(from)
		} else if s.forwardOptimize(w, r, &req, sc) {
			return
		}
	}
	res, err := s.session.Optimize(r.Context(), sc)
	if err != nil {
		// The client is gone (or its deadline passed); status is moot
		// but a typed body keeps proxies and logs coherent.
		s.writeError(w, api.Errorf(http.StatusRequestTimeout, api.CodeCancelled, "request cancelled: %v", err))
		return
	}
	if res.Err != "" {
		s.writeError(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeUnprocessable, "optimization failed: %s", res.Err))
		return
	}
	writeJSON(w, http.StatusOK, api.OptimizeResponse{
		Node:         s.nodeID(),
		Name:         res.Name,
		Machine:      sc.Machine.String(),
		Local:        res.Classes[core.Local],
		Macro:        res.Classes[core.MacroComm],
		Decomposed:   res.Classes[core.Decomposed],
		General:      res.Classes[core.General],
		Vectorizable: res.Vectorizable,
		ModelTimeUs:  res.ModelTime,
		Collectives:  res.Collectives,
		Phases:       phaseBreakdown(res.Phases),
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.batches.Add(1)
	var spec api.BatchSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&spec); err != nil {
		s.writeError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	rb, aerr := s.resolveBatch(spec)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	sum, _ := s.runBatch(r.Context(), rb, func(line api.BatchLine) {
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	})
	// On cancellation the client is usually gone; writing the summary
	// is then a no-op, but a server-side deadline still delivers a
	// well-terminated stream with summary.cancelled set.
	enc.Encode(api.BatchSummary{Summary: sum})
}

// runBatch runs a resolved batch on the shared session, streaming
// lines to emit, and assembles the summary: aggregates, the
// server-side diff against the baseline snapshot (for snapshot-named
// specs) and the save-as recording. Shared by the synchronous /v1/batch
// stream and async jobs.
func (s *Server) runBatch(ctx context.Context, rb *resolvedBatch, emit func(api.BatchLine)) (api.BatchSummaryBody, error) {
	b, runErr := s.session.RunStream(ctx, rb.suite, func(res engine.Result) {
		line := api.BatchLine{
			Name:         res.Name,
			Classes:      res.Classes,
			Vectorizable: res.Vectorizable,
			ModelTimeUs:  res.ModelTime,
			Collectives:  res.Collectives,
			Err:          res.Err,
		}
		if rb.timings {
			line.Phases = phaseBreakdown(res.Phases)
		}
		emit(line)
	})
	sum := api.BatchSummaryBody{
		Scenarios:      len(b.Results),
		ClassTotals:    b.ClassTotals,
		TotalModelTime: b.TotalModelTime,
		Errors:         b.Errors,
	}
	if runErr != nil {
		sum.Cancelled = true
		return sum, runErr
	}
	snap := store.Take(b)
	spec := rb.genSpec
	snap.Spec = &spec
	if rb.baseline != nil {
		_, dsp := trace.StartSpan(ctx, "snapshot.diff")
		d := store.Compare(rb.baseline, snap)
		dsp.Set("baseline", rb.baselineName).SetInt("regressions", int64(d.Regressions)).End()
		sum.Diff = &api.DiffSummary{
			Baseline:    rb.baselineName,
			Unchanged:   d.Unchanged,
			Changed:     len(d.Changed),
			Regressions: d.Regressions,
			Added:       len(d.Added),
			Removed:     len(d.Removed),
		}
	}
	if rb.saveAs != "" {
		// The name and the store were validated at resolve time, so a
		// failure here is an I/O problem. SaveSnapshot records it in
		// the store's warning log (visible in /v1/stats); the summary
		// omits the recording so clients can tell it did not stick.
		_, ssp := trace.StartSpan(ctx, "snapshot.save")
		_, err := s.store.SaveSnapshot(rb.saveAs, snap)
		if err == nil {
			sum.Snapshot = rb.saveAs
			s.replicateSnapshot(ctx, rb.saveAs)
		} else {
			ssp.Set("error", err.Error())
		}
		ssp.Set("name", rb.saveAs).End()
	}
	return sum, nil
}

func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeError(w, errNoStore())
		return
	}
	names, err := s.store.ListSnapshots()
	if err != nil {
		s.writeError(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "listing snapshots: %v", err))
		return
	}
	list := api.SnapshotList{Snapshots: []api.SnapshotInfo{}}
	for _, name := range names {
		snap, err := s.store.LoadSnapshot(name)
		if err != nil {
			continue // raced with deletion or corrupt: skip, don't fail the listing
		}
		list.Snapshots = append(list.Snapshots, api.SnapshotInfo{
			Name:           name,
			Scenarios:      snap.Scenarios,
			Errors:         snap.Errors,
			TotalModelTime: snap.TotalModelTime,
			Rerunnable:     snap.Spec != nil,
		})
	}
	writeJSON(w, http.StatusOK, list)
}

func errNoStore() *api.Error {
	return api.Errorf(http.StatusServiceUnavailable, api.CodeNoStore, "this daemon has no plan store (start resoptd with -store)")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsResponse())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, e *api.Error) {
	// The traced middleware stamped the Trace-Id header before
	// dispatch; copying it into the body lets clients report the ID
	// even when they only kept the decoded error.
	if e.TraceID == "" {
		e.TraceID = w.Header().Get(TraceHeader)
	}
	writeJSON(w, e.Status, api.ErrorEnvelope{Error: e})
}
