// Command resoptd serves the residual-communication optimizer over
// HTTP: the versioned /v1 API of internal/api. One engine session
// backs every request, so concurrent clients share the worker pool,
// the in-memory memo cache and the optional disk store — a nest
// optimized once is served from cache thereafter, across requests and
// (with -store) across restarts.
//
//	resoptd                              # serve on :8080, no persistence
//	resoptd -addr :9000 -store ./plans   # persistent plan store
//	resoptd -workers 8 -cache-cap 4096   # bounded pool and cache
//	resoptd -rate 50 -burst 100          # per-client rate limiting
//	resoptd -rate 50 -rate-key api-key   # buckets per X-Api-Key header
//	resoptd -rate 50 -rate-key forwarded # buckets per X-Forwarded-For hop
//
// Every request runs under a trace: the root span adopts a valid
// inbound W3C traceparent header (minting a fresh trace otherwise),
// the response carries a Trace-Id header, and recent traces are
// retrievable from the ops listener. Logs are structured (log/slog):
//
//	resoptd -log-format json -log-level debug   # machine-readable logs
//	resoptd -trace-slow 250ms                   # log span trees of slow requests
//	resoptd -trace-cap 256                      # deeper trace ring
//
// The ops listener (-ops-addr, default off) serves the operational
// endpoints away from API clients: GET /metrics (Prometheus text
// format with the resopt_go_* runtime families; OpenMetrics with
// trace exemplars when negotiated), GET /metrics/cluster (the fleet's
// scrapes federated under a node label), GET /healthz (clustered:
// peers_up/peers_total, "degraded" when a peer is down),
// GET /debug/traces[/{id}] (clustered: span trees stitched across
// every node a forwarded request touched), and GET /debug/pprof/*.
// The fleet's aggregated counters are one call away on the API
// listener: GET /v1/cluster/stats (see docs/OPERATIONS.md,
// "Observing a fleet").
// Clustered serving shards the plan-key space across a static fleet
// of daemons on a consistent-hash ring: requests for keys owned by a
// peer are forwarded one hop, cold plans consult the replica peers
// before computing, and finished plans/snapshots replicate to the
// ring successors (see docs/OPERATIONS.md, "Running a cluster"):
//
//	resoptd -addr :8080 -store ./a -node-id node1 \
//	        -cluster node1=http://hostA:8080,node2=http://hostB:8080
//	resoptd -cluster-file fleet.json -node-id node2   # {"id": "url", ...}
//	resoptd -cluster ... -cluster-replicas 3          # R=3 replication
//	resoptd -cluster ... -probe-interval 5s           # slower health sweep
//
// The background sweeper (-sweep-interval, default off) ages finished
// jobs and GCs the store tiers on a ticker, without a client asking:
//
//	resoptd -store ./plans -ops-addr 127.0.0.1:9090 \
//	        -sweep-interval 10m -job-ttl 24h -job-keep 500 \
//	        -gc-age 168h -gc-keep 100000
//
//	curl -s localhost:9090/metrics
//	curl -s localhost:9090/healthz
//	curl -s localhost:9090/debug/traces?min=100ms
//	go tool pprof localhost:9090/debug/pprof/heap
//
//	curl -s localhost:8080/v1/stats
//	curl -s -X POST localhost:8080/v1/optimize -d '{"example":"matmul"}'
//	curl -s -X POST localhost:8080/v1/batch -d '{"random":2,"no_examples":true}'
//	curl -s -X POST localhost:8080/v1/jobs -d '{"deep":50,"m":3}'
//
// SIGINT/SIGTERM drain in-flight requests, stop the sweeper and exit
// cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
)

// newLogger builds the process logger from the -log-format and
// -log-level flags (exits on bad values — logging misconfiguration
// should fail loudly, not silently default).
func newLogger(format, level string) *slog.Logger {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		fmt.Fprintf(os.Stderr, "resoptd: bad -log-level %q (want debug, info, warn or error)\n", level)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch format {
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	default:
		fmt.Fprintf(os.Stderr, "resoptd: bad -log-format %q (want json or text)\n", format)
		os.Exit(2)
	}
	return slog.New(h)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	opsAddr := flag.String("ops-addr", "", "ops listener address serving /metrics, /healthz, /debug/traces and /debug/pprof (empty: disabled; bind it to localhost or an internal interface — it is not rate limited)")
	storeDir := flag.String("store", "", "directory of the persistent plan store (empty: none)")
	workers := flag.Int("workers", 0, "engine worker pool size (0: GOMAXPROCS)")
	cacheCap := flag.Int("cache-cap", 0, "in-memory cache entry cap (0: default, <0: unbounded)")
	rate := flag.Float64("rate", 0, "per-client sustained request rate limit in req/s (0: unlimited)")
	burst := flag.Int("burst", 0, "per-client burst above -rate (0: twice the rate)")
	rateKey := flag.String("rate-key", "ip", "rate-limiter client identity: ip | api-key (X-Api-Key header) | forwarded (first X-Forwarded-For hop); header modes trust the header — use behind a proxy that validates it")
	jobsCap := flag.Int("jobs-cap", 0, "retained finished async jobs (0: default)")
	sweepInterval := flag.Duration("sweep-interval", 0, "background sweeper tick period (0: disabled)")
	jobTTL := flag.Duration("job-ttl", 0, "sweeper: retire finished jobs older than this (0: no age bound)")
	jobKeep := flag.Int("job-keep", 0, "sweeper: keep at most this many finished jobs (0: no count bound)")
	gcAge := flag.Duration("gc-age", 0, "sweeper: GC store files unused for longer than this (0: no age criterion)")
	gcKeep := flag.Int("gc-keep", 0, "sweeper: GC store files beyond this many per tier, least recently used first (0: no count criterion)")
	clusterSpec := flag.String("cluster", "", "static cluster membership as comma-separated id=url pairs, e.g. node1=http://a:8080,node2=http://b:8080 (requires -node-id)")
	clusterFile := flag.String("cluster-file", "", "JSON file mapping node id to base URL — the file variant of -cluster")
	nodeID := flag.String("node-id", "", "this node's id within the -cluster/-cluster-file membership")
	clusterVNodes := flag.Int("cluster-vnodes", 0, "virtual nodes per member on the hash ring (0: default)")
	clusterReplicas := flag.Int("cluster-replicas", 0, "replication factor R, owner included (0: default 2)")
	probeInterval := flag.Duration("probe-interval", 0, "peer health probe sweep period (0: default 2s)")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	traceSlow := flag.Duration("trace-slow", 0, "log the full span tree of requests slower than this (0: disabled)")
	traceCap := flag.Int("trace-cap", 0, "recent traces retained for /debug/traces (0: default)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("resoptd"))
		return
	}
	logger := newLogger(*logFormat, *logLevel)

	valid := false
	for _, m := range server.RateKeyModes() {
		if *rateKey == m {
			valid = true
		}
	}
	if !valid {
		logger.Error("bad -rate-key", slog.String("got", *rateKey), slog.Any("want", server.RateKeyModes()))
		os.Exit(1)
	}
	opts := server.Options{
		Workers:    *workers,
		CacheCap:   *cacheCap,
		RatePerSec: *rate,
		RateBurst:  *burst,
		RateKey:    *rateKey,
		JobsCap:    *jobsCap,
		Logger:     logger,
		TraceSlow:  *traceSlow,
		TraceCap:   *traceCap,
	}
	logger.Info("starting",
		slog.String("version", buildinfo.Version),
		slog.String("go", runtime.Version()))
	if *rate > 0 {
		logger.Info("rate limiting", slog.Float64("req_per_sec", *rate), slog.String("keyed_by", *rateKey))
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			logger.Error("opening store", slog.Any("err", err))
			os.Exit(1)
		}
		opts.Store = st
		logger.Info("plan store open", slog.String("dir", st.Dir()))
	}
	switch {
	case *clusterSpec != "" && *clusterFile != "":
		logger.Error("-cluster and -cluster-file are mutually exclusive")
		os.Exit(1)
	case *clusterSpec != "" || *clusterFile != "":
		nodes, err := cluster.ParseSpec(*clusterSpec)
		if *clusterFile != "" {
			nodes, err = cluster.LoadFile(*clusterFile)
		}
		if err != nil {
			logger.Error("cluster membership", slog.Any("err", err))
			os.Exit(1)
		}
		cl, err := cluster.New(cluster.Config{
			Self:     *nodeID,
			Nodes:    nodes,
			VNodes:   *clusterVNodes,
			Replicas: *clusterReplicas,
		})
		if err != nil {
			logger.Error("cluster config", slog.Any("err", err))
			os.Exit(1)
		}
		if opts.Store == nil {
			logger.Warn("clustered without -store: plans and snapshots cannot replicate to or from this node")
		}
		opts.Cluster = cl
		opts.ClusterProbeInterval = *probeInterval
		logger.Info("clustered",
			slog.String("node", cl.Self()),
			slog.Int("members", cl.Size()),
			slog.Int("replicas", cl.Replicas()))
	default:
		if *nodeID != "" {
			logger.Error("-node-id needs -cluster or -cluster-file")
			os.Exit(1)
		}
	}
	srv := server.New(opts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sweep := server.SweepOptions{
		Interval: *sweepInterval,
		JobTTL:   *jobTTL,
		JobKeep:  *jobKeep,
		GCAge:    *gcAge,
		GCKeep:   *gcKeep,
	}
	switch {
	case *sweepInterval < 0:
		logger.Error("bad -sweep-interval (want a positive duration)", slog.Duration("got", *sweepInterval))
		os.Exit(1)
	case *sweepInterval > 0:
		if *jobTTL == 0 && *jobKeep == 0 && *gcAge == 0 && *gcKeep == 0 {
			logger.Warn("-sweep-interval set but no -job-ttl/-job-keep/-gc-age/-gc-keep criteria; the sweeper will tick and do nothing")
		}
		if (*gcAge > 0 || *gcKeep > 0) && *storeDir == "" {
			logger.Warn("-gc-age/-gc-keep need -store; the sweeper will only prune jobs")
		}
		srv.StartSweeper(ctx, sweep)
		logger.Info("sweeper on",
			slog.Duration("interval", *sweepInterval),
			slog.Duration("job_ttl", *jobTTL), slog.Int("job_keep", *jobKeep),
			slog.Duration("gc_age", *gcAge), slog.Int("gc_keep", *gcKeep))
	default:
		if *jobTTL != 0 || *jobKeep != 0 || *gcAge != 0 || *gcKeep != 0 {
			logger.Warn("-job-ttl/-job-keep/-gc-age/-gc-keep have no effect without -sweep-interval")
		}
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 2)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("serving", slog.String("addr", *addr))

	var ops *http.Server
	if *opsAddr != "" {
		ops = &http.Server{Addr: *opsAddr, Handler: srv.OpsHandler()}
		go func() { errc <- ops.ListenAndServe() }()
		logger.Info("ops listener on (metrics, healthz, traces, pprof)", slog.String("addr", *opsAddr))
	}

	select {
	case err := <-errc:
		logger.Error("listener failed", slog.Any("err", err))
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ops != nil {
		// The ops listener has no long-lived requests worth draining;
		// a failed shutdown must not block the API drain below.
		opsCtx, opsCancel := context.WithTimeout(shutdownCtx, 2*time.Second)
		ops.Shutdown(opsCtx)
		opsCancel()
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		// Handlers may still be mid-request and submitting work to the
		// shared session; closing it now would race them. The process
		// is exiting anyway, so skip the session teardown.
		logger.Warn("shutdown", slog.Any("err", err))
		return
	}
	// Clean drain: no handler is running, the session can close.
	srv.Close()
}
