package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/cluster"
)

// remoteConfig is resopt's -remote mode: drive a resoptd daemon (or a
// comma-separated fleet of them) over the /v1 API with the Go client
// instead of optimizing in-process.
type remoteConfig struct {
	base                 string
	batch, snapshots     bool
	stats                bool
	clusterStats         bool
	lattice              string
	retries              int
	example, nestFile    string
	outFile              string
	saveAs, fromSnapshot string
	spec                 api.BatchSpec
	m                    int
}

// remoteFleet is the client-side view of one or more resoptd
// endpoints: a consistent-hash ring over the endpoint URLs routes
// each key to a stable endpoint (so repeat requests hit the same
// daemon's cache), and the remaining endpoints are the failover
// order. A single endpoint degenerates to "try it".
type remoteFleet struct {
	urls    []string
	clients map[string]*client.Client
	ring    *cluster.Ring
}

func newRemoteFleet(spec string, retries int) (*remoteFleet, error) {
	f := &remoteFleet{clients: map[string]*client.Client{}}
	for _, u := range strings.Split(spec, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		c, err := client.New(u, nil, client.WithRetry(retries))
		if err != nil {
			return nil, err
		}
		f.urls = append(f.urls, u)
		f.clients[u] = c
	}
	if len(f.urls) == 0 {
		return nil, fmt.Errorf("-remote: empty endpoint list")
	}
	f.ring = cluster.NewRing(f.urls, 0)
	return f, nil
}

// order returns every endpoint, the ring successors of key first —
// the shard map plus its failover tail. An empty key keeps the flag
// order (no affinity to exploit).
func (f *remoteFleet) order(key string) []*client.Client {
	urls := f.urls
	if key != "" {
		urls = f.ring.Successors(key, len(f.urls))
	}
	out := make([]*client.Client, 0, len(urls))
	for _, u := range urls {
		out = append(out, f.clients[u])
	}
	return out
}

// try runs fn against each endpoint in order until one answers. A
// typed api.Error is an answer — the daemon is alive and said no, so
// another endpoint would say the same — and only transport-level
// failures move on to the next endpoint.
func (f *remoteFleet) try(order []*client.Client, fn func(*client.Client) error) error {
	var lastErr error
	for _, c := range order {
		err := fn(c)
		if err == nil {
			return nil
		}
		var ae *api.Error
		if errors.As(err, &ae) {
			return err
		}
		fmt.Fprintf(os.Stderr, "resopt: %s unreachable: %v\n", c.BaseURL(), err)
		lastErr = err
	}
	return lastErr
}

func runRemote(cfg remoteConfig) {
	f, err := newRemoteFleet(cfg.base, cfg.retries)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	switch {
	case cfg.stats && cfg.clusterStats:
		remoteClusterStats(ctx, f)
	case cfg.stats:
		remoteStats(ctx, f)
	case cfg.snapshots:
		remoteSnapshots(ctx, f)
	case cfg.lattice != "":
		remoteLattice(ctx, f, cfg)
	case cfg.batch:
		remoteBatch(ctx, f, cfg)
	default:
		remoteOptimize(ctx, f, cfg)
	}
}

func remoteSnapshots(ctx context.Context, f *remoteFleet) {
	var snaps []api.SnapshotInfo
	err := f.try(f.order(""), func(c *client.Client) error {
		var err error
		snaps, err = c.Snapshots(ctx)
		return err
	})
	if err != nil {
		fatal(err)
	}
	if len(snaps) == 0 {
		fmt.Println("no snapshots stored")
		return
	}
	fmt.Printf("%-30s %10s %8s %14s  %s\n", "NAME", "SCENARIOS", "ERRORS", "MODEL µs", "RERUNNABLE")
	for _, s := range snaps {
		rerun := ""
		if s.Rerunnable {
			rerun = "yes"
		}
		fmt.Printf("%-30s %10d %8d %14.0f  %s\n", s.Name, s.Scenarios, s.Errors, s.TotalModelTime, rerun)
	}
}

// remoteStats prints the daemon's /v1/stats — and, for a clustered
// daemon, its node section: identity, ring, peer health and forward
// traffic, the fleet-level picture a lone stats body cannot give.
func remoteStats(ctx context.Context, f *remoteFleet) {
	var st *api.StatsResponse
	var from string
	err := f.try(f.order(""), func(c *client.Client) error {
		var err error
		st, err = c.Stats(ctx)
		from = c.BaseURL()
		return err
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: api %s, %d workers\n", from, st.Version, st.Workers)
	fmt.Printf("cache: plan %d/%d, kernel %d/%d (hits/misses); disk plan %d/%d, kernel %d/%d\n",
		st.Cache.PlanHits, st.Cache.PlanMisses, st.Cache.KernelHits, st.Cache.KernelMisses,
		st.Cache.DiskHits, st.Cache.DiskMisses, st.Cache.KernelDiskHits, st.Cache.KernelDiskMisses)
	fmt.Printf("requests: %d optimize, %d batch, %d lattice, %d jobs, %d rate-limited\n",
		st.Requests.Optimize, st.Requests.Batch, st.Requests.Lattice, st.Requests.Jobs, st.Requests.RateLimited)
	n := st.Node
	if n == nil {
		fmt.Println("cluster: standalone (no -cluster)")
		return
	}
	fmt.Printf("cluster: node %s, ring of %d, R=%d\n", n.ID, n.RingSize, n.Replicas)
	fmt.Printf("  forwards: %d out, %d in, %d fallbacks; peer plan hits %d, plans replicated %d\n",
		n.ForwardsOut, n.ForwardsIn, n.ForwardFallbacks, n.PeerPlanHits, n.PlansReplicated)
	for _, p := range n.Peers {
		state := "up"
		if !p.Up {
			state = fmt.Sprintf("DOWN (%d failures: %s)", p.Failures, p.LastErr)
		}
		fmt.Printf("  peer %-12s %-28s %s\n", p.Node, p.URL, state)
	}
}

// remoteClusterStats prints the fleet view from /v1/cluster/stats:
// one line per member (unreachable ones flagged) and the aggregated
// rollup. Any member can answer — the endpoint fans out server-side.
func remoteClusterStats(ctx context.Context, f *remoteFleet) {
	var cs *api.ClusterStatsResponse
	var from string
	err := f.try(f.order(""), func(c *client.Client) error {
		var err error
		cs, err = c.ClusterStats(ctx)
		from = c.BaseURL()
		return err
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fleet via %s (assembled by node %q): %d members, %d unreachable\n",
		from, cs.Node, cs.Rollup.Nodes, cs.Rollup.Unreachable)
	for _, m := range cs.Members {
		if m.Stats == nil {
			fmt.Printf("  %-12s %-28s UNREACHABLE (%s)\n", m.ID, m.URL, m.Error)
			continue
		}
		st := m.Stats
		fmt.Printf("  %-12s %-28s %d workers, %d optimize, %d batch, %d jobs; plan cache %d/%d\n",
			m.ID, m.URL, st.Workers, st.Requests.Optimize, st.Requests.Batch, st.Requests.Jobs,
			st.Cache.PlanHits, st.Cache.PlanMisses)
	}
	ru := cs.Rollup
	fmt.Printf("rollup: %d workers, %d optimize, %d batch, %d jobs, %d rate-limited\n",
		ru.Workers, ru.Requests.Optimize, ru.Requests.Batch, ru.Requests.Jobs, ru.Requests.RateLimited)
	fmt.Printf("rollup: plan hit rate %.1f%%, kernel hit rate %.1f%%; %d scenarios, engine total %.0f µs\n",
		100*ru.PlanHitRate, 100*ru.KernelHitRate, ru.Phases.Scenarios, ru.Phases.TotalUs)
	fmt.Printf("rollup: forwards %d out / %d in (%d fallbacks), peer plan hits %d, plans replicated %d\n",
		ru.ForwardsOut, ru.ForwardsIn, ru.ForwardFallbacks, ru.PeerPlanHits, ru.PlansReplicated)
}

func remoteOptimize(ctx context.Context, f *remoteFleet, cfg remoteConfig) {
	req := api.OptimizeRequest{
		M:               cfg.spec.M,
		NoMacro:         cfg.spec.NoMacro,
		NoDecomposition: cfg.spec.NoDecomposition,
	}
	switch {
	case cfg.example != "":
		req.Example = cfg.example
	case cfg.nestFile != "":
		src, err := os.ReadFile(cfg.nestFile)
		if err != nil {
			fatal(err)
		}
		req.Nest = string(src)
	default:
		req.Example = "example1"
	}
	// Shard by the nest itself: the same program always lands on the
	// same endpoint first, whose caches (and cluster routing) take it
	// from there.
	var res *api.OptimizeResponse
	err := f.try(f.order(req.Example+req.Nest), func(c *client.Client) error {
		var err error
		res, err = c.Optimize(ctx, req)
		return err
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s on %s: %d local, %d macro, %d decomposed, %d general (%d vectorizable), model time %.1f µs\n",
		res.Name, res.Machine, res.Local, res.Macro, res.Decomposed, res.General, res.Vectorizable, res.ModelTimeUs)
	if res.Collectives != "" {
		fmt.Printf("collectives: %s\n", res.Collectives)
	}
	if res.Node != "" {
		fmt.Printf("answered by cluster node %s\n", res.Node)
	}
}

// remoteBatch streams a batch run: NDJSON result lines to stdout (or
// -o FILE), the human summary — including the server-side snapshot
// diff for -from-snapshot re-runs — to stderr. Exits 1 when the
// server reports regressions against the snapshot baseline. Endpoint
// failover happens only until the first line arrives; a stream that
// dies midway must not restart elsewhere and emit duplicate lines.
func remoteBatch(ctx context.Context, f *remoteFleet, cfg remoteConfig) {
	spec := cfg.spec
	spec.SaveAs = cfg.saveAs
	if cfg.fromSnapshot != "" {
		// A snapshot-named spec carries only the name; the server
		// resolves the recorded generation fields.
		spec = api.BatchSpec{Snapshot: cfg.fromSnapshot, SaveAs: cfg.saveAs}
	}

	// -o writes via a temp file renamed into place on success, so a
	// failed or interrupted run never truncates an existing results
	// file (a previous good NDJSON would otherwise be lost to an
	// empty one, and empty-vs-empty comparisons pass vacuously).
	var out *os.File = os.Stdout
	var tmpName string
	if cfg.outFile != "" {
		fl, err := os.CreateTemp(filepath.Dir(cfg.outFile), ".resopt-*")
		if err != nil {
			fatal(err)
		}
		tmpName = fl.Name()
		out = fl
	}
	// fatal os.Exits (defers do not run), so failure paths remove the
	// temp file explicitly before exiting.
	fail := func(err error) {
		if tmpName != "" {
			out.Close()
			os.Remove(tmpName)
		}
		fatal(err)
	}
	enc := json.NewEncoder(out)
	var sum *api.BatchSummary
	streaming := false
	err := f.try(f.order(spec.Snapshot+spec.SaveAs), func(c *client.Client) error {
		var err error
		sum, err = c.Batch(ctx, spec, func(l api.BatchLine) error {
			streaming = true
			return enc.Encode(l)
		})
		if err != nil && streaming {
			// Lines were already emitted; surface the failure instead of
			// replaying the suite on another endpoint.
			fail(err)
		}
		return err
	})
	if err != nil {
		fail(err)
	}
	if tmpName != "" {
		if err := out.Close(); err != nil {
			fail(err)
		}
		if err := os.Rename(tmpName, cfg.outFile); err != nil {
			fail(err)
		}
	}
	s := sum.Summary
	fmt.Fprintf(os.Stderr, "batch: %d scenarios, %d errors, communications [%d %d %d %d], model time %.0f µs\n",
		s.Scenarios, s.Errors, s.ClassTotals[0], s.ClassTotals[1], s.ClassTotals[2], s.ClassTotals[3], s.TotalModelTime)
	if s.Snapshot != "" {
		fmt.Fprintf(os.Stderr, "recorded server-side as snapshot %q\n", s.Snapshot)
	}
	if d := s.Diff; d != nil {
		fmt.Fprintf(os.Stderr, "diff vs %q: %d unchanged, %d changed (%d regressions), %d added, %d removed\n",
			d.Baseline, d.Unchanged, d.Changed, d.Regressions, d.Added, d.Removed)
		if d.Regressions > 0 {
			os.Exit(1)
		}
	}
}
