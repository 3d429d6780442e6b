package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/store"
)

// clusterNode is one member of an in-process test cluster.
type clusterNode struct {
	id  string
	srv *Server
	ts  *httptest.Server
	st  *store.Store
}

// startClusterPair boots a real 2-node cluster in-process: two
// servers with their own stores, each behind its own listener,
// configured as members nodeA and nodeB of the same ring. The
// background prober is off (ClusterProbeInterval < 0) so health
// state moves only on the traffic the test sends — deterministic.
func startClusterPair(t *testing.T, tweak func(*Options)) (a, b *clusterNode) {
	t.Helper()
	// The membership needs both URLs before either Server exists, so
	// each listener starts on a handler indirection filled in below.
	var hA, hB atomic.Value
	lazy := func(h *atomic.Value) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(http.Handler).ServeHTTP(w, r)
		})
	}
	tsA := httptest.NewServer(lazy(&hA))
	tsB := httptest.NewServer(lazy(&hB))
	nodes := map[string]string{"nodeA": tsA.URL, "nodeB": tsB.URL}

	mk := func(self string, ts *httptest.Server, h *atomic.Value) *clusterNode {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{Self: self, Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Store: st, Cluster: cl, ClusterProbeInterval: -1}
		if tweak != nil {
			tweak(&opts)
		}
		srv := New(opts)
		h.Store(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return &clusterNode{id: self, srv: srv, ts: ts, st: st}
	}
	return mk("nodeA", tsA, &hA), mk("nodeB", tsB, &hB)
}

// requestOwnedBy finds an example nest whose canonical plan key the
// ring assigns to the wanted node.
func requestOwnedBy(t *testing.T, n *clusterNode, owner string) api.OptimizeRequest {
	t.Helper()
	for _, p := range affine.AllExamples() {
		for _, machine := range []string{"", "mesh4x4", "hypercube6"} {
			req := api.OptimizeRequest{Example: p.Name, Machine: machine}
			sc, aerr := scenarioFromRequest(&req)
			if aerr != nil {
				continue
			}
			if n.srv.clusterRt.cl.Owner(sc.PlanKey()) == owner {
				return req
			}
		}
	}
	t.Fatalf("no example owned by %s", owner)
	return api.OptimizeRequest{}
}

func optimizeVia(t *testing.T, n *clusterNode, req api.OptimizeRequest, header string) (*http.Response, *api.OptimizeResponse, []byte) {
	t.Helper()
	data, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, n.ts.URL+"/v1/optimize", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if header != "" {
		hr.Header.Set(api.ForwardHeader, header)
	}
	resp, err := n.ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var out api.OptimizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decoding optimize response: %v (%s)", err, buf.Bytes())
		}
	}
	return resp, &out, buf.Bytes()
}

func nodeStatsOf(t *testing.T, n *clusterNode) *api.NodeStats {
	t.Helper()
	resp, body := get(t, n.ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st api.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Node == nil {
		t.Fatal("clustered daemon reports no node stats")
	}
	return st.Node
}

// TestClusterForwarding is the routing acceptance test: a key owned
// by node B requested via node A is proxied to B — the response says
// which node answered, A's trace tree carries the cluster.forward
// child span, and both nodes' counters and metrics move.
func TestClusterForwarding(t *testing.T) {
	a, b := startClusterPair(t, nil)
	req := requestOwnedBy(t, a, "nodeB")

	resp, out, body := optimizeVia(t, a, req, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize via A: status %d: %s", resp.StatusCode, body)
	}
	if out.Node != "nodeB" {
		t.Errorf("answering node = %q, want nodeB", out.Node)
	}

	// The hop shows up as a child span in A's trace tree.
	found := false
	for _, ts := range a.srv.tracer.List(0, 10) {
		td, _ := a.srv.tracer.Get(ts.TraceID)
		for _, sp := range td.Spans {
			if sp.Name == "cluster.forward" {
				found = true
				if sp.Parent == "" {
					t.Error("cluster.forward is not a child span")
				}
				if sp.Attrs["peer"] != "nodeB" {
					t.Errorf("forward span peer = %q, want nodeB", sp.Attrs["peer"])
				}
			}
		}
	}
	if !found {
		t.Error("no cluster.forward span recorded on node A")
	}

	// Node sections on both sides.
	nsA, nsB := nodeStatsOf(t, a), nodeStatsOf(t, b)
	if nsA.ID != "nodeA" || nsA.RingSize != 2 || nsA.Replicas != 2 || len(nsA.Peers) != 1 {
		t.Errorf("node A stats %+v", nsA)
	}
	if nsA.ForwardsOut != 1 {
		t.Errorf("A forwards_out = %d, want 1", nsA.ForwardsOut)
	}
	if nsB.ForwardsIn != 1 {
		t.Errorf("B forwards_in = %d, want 1", nsB.ForwardsIn)
	}
	if !nsA.Peers[0].Up || nsA.Peers[0].Node != "nodeB" {
		t.Errorf("A's view of B: %+v", nsA.Peers[0])
	}

	// A key A owns itself is answered locally.
	local := requestOwnedBy(t, a, "nodeA")
	if _, out, _ := optimizeVia(t, a, local, ""); out.Node != "nodeA" {
		t.Errorf("locally owned key answered by %q", out.Node)
	}
	if ns := nodeStatsOf(t, a); ns.ForwardsOut != 1 {
		t.Errorf("local key was forwarded (forwards_out = %d)", ns.ForwardsOut)
	}

	// The metric family moved on both nodes (what the CI smoke greps).
	var mbuf bytes.Buffer
	a.srv.Registry().WriteText(&mbuf)
	if !strings.Contains(mbuf.String(), `resopt_cluster_forwards_total{peer="nodeB",direction="out"} 1`) {
		t.Error("node A /metrics does not count the forward out")
	}
	mbuf.Reset()
	b.srv.Registry().WriteText(&mbuf)
	if !strings.Contains(mbuf.String(), `resopt_cluster_forwards_total{peer="nodeA",direction="in"} 1`) {
		t.Error("node B /metrics does not count the forward in")
	}
}

// TestClusterSingleFlight is the cross-replica single-flight
// acceptance test: one cold key, concurrent requests against both
// nodes, exactly one computation cluster-wide — the non-owner
// forwards everything and computes nothing, the owner's single-flight
// collapses the rest, and the finished plan replicates back.
func TestClusterSingleFlight(t *testing.T) {
	a, b := startClusterPair(t, nil)
	req := requestOwnedBy(t, a, "nodeB")

	const perNode = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*perNode)
	for i := 0; i < perNode; i++ {
		for _, n := range []*clusterNode{a, b} {
			wg.Add(1)
			go func(n *clusterNode) {
				defer wg.Done()
				resp, out, body := optimizeVia(t, n, req, "")
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("via %s: status %d: %s", n.id, resp.StatusCode, body)
					return
				}
				if out.Node != "nodeB" {
					errs <- fmt.Errorf("via %s: answered by %q, want nodeB", n.id, out.Node)
				}
			}(n)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The non-owner never touched its engine.
	if got := a.srv.session.PhaseTotals().Scenarios; got != 0 {
		t.Errorf("node A ran %d scenarios, want 0 (all forwarded)", got)
	}
	// The owner went cold exactly once: one disk miss, one stored plan.
	if got := b.srv.session.CacheStats().DiskMisses; got != 1 {
		t.Errorf("node B disk misses = %d, want 1 (single compute)", got)
	}
	if got := b.st.Stats().PlanPuts; got != 1 {
		t.Errorf("node B plan puts = %d, want 1", got)
	}

	// The finished plan replicates to the other ring successor.
	sc, _ := scenarioFromRequest(&req)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := a.st.GetPlan(sc.PlanKey()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plan never replicated to node A's store")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ns := nodeStatsOf(t, b); ns.PlansReplicated == 0 {
		t.Error("node B reports no replicated plans")
	}
}

// TestClusterPeerPlanTier: a node going cold on a key consults the
// replica peers' stores before computing (engine.RemotePlanTier), and
// serves the peer's plan with identical results.
func TestClusterPeerPlanTier(t *testing.T) {
	a, b := startClusterPair(t, nil)
	req := requestOwnedBy(t, a, "nodeA")

	// Let A compute the key with B marked down, so the plan does not
	// replicate and B's disk stays cold.
	a.srv.clusterRt.cl.Health().ReportFailure("nodeB", fmt.Errorf("test: holding replication back"))
	_, outA, _ := optimizeVia(t, a, req, "")
	if outA.Node != "nodeA" {
		t.Fatalf("owner A did not answer (node %q)", outA.Node)
	}
	sc, _ := scenarioFromRequest(&req)
	if _, _, ok := b.st.GetPlan(sc.PlanKey()); ok {
		t.Fatal("plan replicated to B despite down mark; test premise broken")
	}

	// B computes the same key "cold" (the forward header pins it
	// local); the peer tier finds A's plan instead of recomputing.
	resp, outB, body := optimizeVia(t, b, req, "nodeA")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize via B: status %d: %s", resp.StatusCode, body)
	}
	if outB.Node != "nodeB" {
		t.Errorf("loop-guarded request answered by %q, want nodeB", outB.Node)
	}
	if ns := nodeStatsOf(t, b); ns.PeerPlanHits != 1 {
		t.Errorf("B peer plan hits = %d, want 1", ns.PeerPlanHits)
	}
	// Same plans, same numbers — wherever the plan came from.
	outA.Node, outB.Node = "", ""
	outA.Phases, outB.Phases = nil, nil
	if !equalJSON(t, outA, outB) {
		t.Errorf("peer-served result differs:\n A: %+v\n B: %+v", outA, outB)
	}
	// Write-through: B's store now holds the plan for next time.
	if _, _, ok := b.st.GetPlan(sc.PlanKey()); !ok {
		t.Error("peer-fetched plan not written through to B's store")
	}
}

func equalJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// TestClusterLoopProtection: a request already carrying the forward
// header is answered locally no matter who owns the key — one hop,
// never two.
func TestClusterLoopProtection(t *testing.T) {
	a, _ := startClusterPair(t, nil)
	req := requestOwnedBy(t, a, "nodeB")
	_, out, _ := optimizeVia(t, a, req, "nodeB")
	if out.Node != "nodeA" {
		t.Errorf("forwarded request re-forwarded (answered by %q)", out.Node)
	}
	ns := nodeStatsOf(t, a)
	if ns.ForwardsOut != 0 || ns.ForwardsIn != 1 {
		t.Errorf("forwards out/in = %d/%d, want 0/1", ns.ForwardsOut, ns.ForwardsIn)
	}
}

// TestClusterOwnerDownFallback: when the key's owner is unreachable
// the receiving node computes locally instead of failing, marks the
// owner down, and skips the proxy on the next request.
func TestClusterOwnerDownFallback(t *testing.T) {
	a, b := startClusterPair(t, nil)
	req := requestOwnedBy(t, a, "nodeB")
	b.ts.Close() // nodeB vanishes mid-flight

	resp, out, body := optimizeVia(t, a, req, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback compute failed: status %d: %s", resp.StatusCode, body)
	}
	if out.Node != "nodeA" {
		t.Errorf("fallback answered by %q, want nodeA", out.Node)
	}
	ns := nodeStatsOf(t, a)
	if ns.ForwardFallbacks == 0 {
		t.Error("fallback not counted")
	}
	if len(ns.Peers) != 1 || ns.Peers[0].Up {
		t.Errorf("dead peer still reported up: %+v", ns.Peers)
	}
	// Next request skips the dead owner without a connection attempt.
	before := ns.ForwardFallbacks
	if _, out, _ := optimizeVia(t, a, req, ""); out.Node != "nodeA" {
		t.Errorf("second fallback answered by %q", out.Node)
	}
	if ns := nodeStatsOf(t, a); ns.ForwardFallbacks != before+1 {
		t.Errorf("down-peer fast path not taken (fallbacks %d → %d)", before, ns.ForwardFallbacks)
	}
}

// TestClusterSnapshotReplication: a batch recorded through node A
// lands byte-identically in node B's store at save time, and re-runs
// byte-identically from the non-owner.
func TestClusterSnapshotReplication(t *testing.T) {
	a, b := startClusterPair(t, nil)
	spec := api.BatchSpec{Seed: 5, Random: 2, NoExamples: true, SaveAs: "big-sweep"}
	orig, sum := batchNDJSON(t, a.ts, spec)
	if sum.Summary.Snapshot != "big-sweep" {
		t.Fatalf("batch was not recorded: %+v", sum.Summary)
	}
	rawA, errA := a.st.GetSnapshotRaw("big-sweep")
	rawB, errB := b.st.GetSnapshotRaw("big-sweep")
	if errA != nil || errB != nil {
		t.Fatalf("snapshot missing after replication: A=%v B=%v", errA, errB)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("replicated snapshot is not byte-identical")
	}
	if ns := nodeStatsOf(t, a); ns.ID != "nodeA" {
		t.Errorf("node stats id %q", ns.ID)
	}

	// Re-run from the replica: same lines, clean diff.
	rerun, rerunSum := batchNDJSON(t, b.ts, api.BatchSpec{Snapshot: "big-sweep"})
	if strings.Join(rerun, "\n") != strings.Join(orig, "\n") {
		t.Errorf("re-run from node B not byte-identical:\n orig: %v\nrerun: %v", orig, rerun)
	}
	if d := rerunSum.Summary.Diff; d == nil || d.Regressions != 0 || d.Changed != 0 || d.Unchanged != sum.Summary.Scenarios {
		t.Errorf("re-run diff not clean: %+v", rerunSum.Summary.Diff)
	}
}

// TestClusterPeerEndpointsGated: the replication endpoints are
// cluster-internal — no peer credential, no service; standalone
// daemons do not even route them.
func TestClusterPeerEndpointsGated(t *testing.T) {
	a, _ := startClusterPair(t, nil)
	addr := strings.Repeat("ab", 32)

	resp, body := get(t, a.ts, "/v1/plans/"+addr)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("plan get without credential: status %d: %s", resp.StatusCode, body)
	}
	var env api.ErrorEnvelope
	if json.Unmarshal(body, &env); env.Error == nil || env.Error.Code != api.CodeForbidden || env.Error.Node != "nodeA" {
		t.Errorf("forbidden error body: %s", body)
	}

	hr, _ := http.NewRequest(http.MethodPut, a.ts.URL+"/v1/snapshots/x", strings.NewReader("{}"))
	resp2, err := a.ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Errorf("snapshot put without credential: status %d", resp2.StatusCode)
	}

	// With the credential, a malformed address is a 400, not a 403.
	hr, _ = http.NewRequest(http.MethodGet, a.ts.URL+"/v1/plans/nothex", nil)
	hr.Header.Set(api.ForwardHeader, "nodeB")
	resp3, err := a.ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad address with credential: status %d", resp3.StatusCode)
	}

	// Standalone daemons have no cluster routes at all.
	_, ts := newTestServer(t, Options{})
	resp4, _ := get(t, ts, "/v1/plans/"+addr)
	if resp4.StatusCode != http.StatusNotFound {
		t.Errorf("standalone daemon routes /v1/plans: status %d", resp4.StatusCode)
	}
}

// TestClusterRateLimitExemption: the public token bucket does not
// throttle authenticated peer traffic or health probes — otherwise a
// forwarded request would be charged twice and probes would read as
// outages.
func TestClusterRateLimitExemption(t *testing.T) {
	a, _ := startClusterPair(t, func(o *Options) {
		o.RatePerSec = 0.001
		o.RateBurst = 1
	})

	// Public traffic: the bucket holds exactly one request.
	if resp, _ := get(t, a.ts, "/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first public request: status %d", resp.StatusCode)
	}
	if resp, _ := get(t, a.ts, "/v1/stats"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second public request: status %d, want 429", resp.StatusCode)
	}

	// Peer traffic keeps flowing.
	for i := 0; i < 5; i++ {
		hr, _ := http.NewRequest(http.MethodGet, a.ts.URL+"/v1/stats", nil)
		hr.Header.Set(api.ForwardHeader, "nodeB")
		resp, err := a.ts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("peer request %d rate limited: status %d", i, resp.StatusCode)
		}
	}
	// A spoofed header naming a non-member buys nothing.
	hr, _ := http.NewRequest(http.MethodGet, a.ts.URL+"/v1/stats", nil)
	hr.Header.Set(api.ForwardHeader, "mallory")
	resp, err := a.ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("unknown peer id bypassed the limiter: status %d", resp.StatusCode)
	}
	// Probes always pass.
	for i := 0; i < 3; i++ {
		if resp, _ := get(t, a.ts, "/healthz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz rate limited: status %d", resp.StatusCode)
		}
	}
}
