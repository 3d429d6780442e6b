// Fleet observability: the cluster-wide views of the per-node
// telemetry surfaces. Distributed trace assembly stitches a forwarded
// request's span tree back together from every involved node's ring
// (assembleTrace); GET /v1/cluster/stats aggregates every member's
// /v1/stats into per-node snapshots plus a fleet rollup; and the ops
// listener's GET /metrics/cluster federates the members' scrapes into
// one exposition distinguished by a node label. All cross-node
// fetches are bounded by fleetFetchTimeout and degrade per member —
// a down peer shows up as unreachable (or missing_nodes) instead of
// failing the call.
package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/buildinfo"
	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// fleetFetchTimeout bounds one per-peer observability fetch (stats,
// trace span set, metrics scrape). Short: these are debugging and
// dashboard reads, and a slow peer should degrade the view, not hang
// it.
const fleetFetchTimeout = 2 * time.Second

// statsResponse assembles this node's GET /v1/stats body — shared by
// handleStats and the per-member snapshots of /v1/cluster/stats.
func (s *Server) statsResponse() api.StatsResponse {
	c := s.session.CacheStats()
	resp := api.StatsResponse{
		Version: api.Version,
		Workers: s.session.Workers(),
		Cache: api.CacheStats{
			KernelHits:       c.KernelHits,
			KernelMisses:     c.KernelMisses,
			KernelDiskHits:   c.KernelDiskHits,
			KernelDiskMisses: c.KernelDiskMisses,
			PlanHits:         c.PlanHits,
			PlanMisses:       c.PlanMisses,
			DiskHits:         c.DiskHits,
			DiskMisses:       c.DiskMisses,

			CompiledTemplates:      c.CompiledTemplates,
			CompiledTemplateHits:   c.CompiledTemplateHits,
			CompiledTemplateMisses: c.CompiledTemplateMisses,
			CompiledEvals:          c.CompiledEvals,

			Evictions: c.Evictions,
			Entries:   c.Entries,
		},
		SuiteCache: s.resolver.stats(),
		Jobs:       s.jobs.stats(),
	}
	pt := s.session.PhaseTotals()
	resp.Phases = api.PhaseTotals{
		Scenarios: pt.Scenarios,
		ComputeUs: pt.ComputeUs,
		AlignUs:   pt.AlignUs,
		KernelUs:  pt.KernelUs,
		StoreUs:   pt.StoreUs,
		CostUs:    pt.CostUs,
		TotalUs:   pt.TotalUs,
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &api.StoreStats{
			PlanPuts:        st.PlanPuts,
			PlanGetHits:     st.PlanGetHits,
			PlanGetMisses:   st.PlanGetMisses,
			KernelPuts:      st.KernelPuts,
			KernelGetHits:   st.KernelGetHits,
			KernelGetMisses: st.KernelGetMisses,
			Warnings:        st.Warnings,
		}
	}
	resp.Requests = api.RequestStats{
		Optimize:    s.optimizes.Load(),
		Batch:       s.batches.Load(),
		Lattice:     s.lattices.Load(),
		Jobs:        s.jobReqs.Load(),
		RateLimited: s.rateLimited.Load(),
	}
	resp.Sweeper = s.sweeperStats()
	resp.Node = s.nodeStats()
	return resp
}

// handleClusterStats serves GET /v1/cluster/stats: this node's stats
// plus every peer's, fetched concurrently with a per-peer timeout,
// and the fleet rollup. Down or unresponsive peers are reported as
// unreachable members; the endpoint itself never fails on their
// account. Standalone daemons answer with themselves as the only
// member, so monitoring can target the endpoint uniformly.
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	self := s.statsResponse()
	rt := s.clusterRt
	resp := api.ClusterStatsResponse{Node: s.nodeID()}
	selfID, selfURL := "self", ""
	if rt != nil {
		selfID = rt.cl.Self()
		selfURL = rt.cl.URL(selfID)
	}
	members := []api.ClusterMemberStats{{ID: selfID, URL: selfURL, Status: api.MemberOK, Stats: &self}}
	if rt != nil {
		peers := rt.cl.Peers()
		lastErr := map[string]string{}
		for _, st := range rt.cl.Health().Status() {
			lastErr[st.Node] = st.LastErr
		}
		fetched := make([]api.ClusterMemberStats, len(peers))
		var wg sync.WaitGroup
		for i, peer := range peers {
			fetched[i] = api.ClusterMemberStats{ID: peer, URL: rt.cl.URL(peer)}
			if !rt.cl.Health().Up(peer) {
				fetched[i].Status = api.MemberUnreachable
				fetched[i].Error = lastErr[peer]
				if fetched[i].Error == "" {
					fetched[i].Error = "marked down"
				}
				continue
			}
			wg.Add(1)
			go func(m *api.ClusterMemberStats, pc *client.Client, peer string) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(r.Context(), fleetFetchTimeout)
				defer cancel()
				st, err := pc.Stats(ctx)
				if err != nil {
					var ae *api.Error
					if !errors.As(err, &ae) {
						rt.cl.Health().ReportFailure(peer, err)
					}
					m.Status = api.MemberUnreachable
					m.Error = err.Error()
					return
				}
				rt.cl.Health().ReportSuccess(peer)
				m.Status = api.MemberOK
				m.Stats = st
			}(&fetched[i], rt.peers[peer], peer)
		}
		wg.Wait()
		members = append(members, fetched...)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	resp.Members = members
	resp.Rollup = rollupStats(members)
	writeJSON(w, http.StatusOK, resp)
}

// rollupStats aggregates the reachable members into the fleet view:
// sums for every counter, hit rates recomputed from the summed
// numerators and denominators.
func rollupStats(members []api.ClusterMemberStats) api.ClusterRollup {
	var ru api.ClusterRollup
	ru.Nodes = len(members)
	for _, m := range members {
		if m.Stats == nil {
			ru.Unreachable++
			continue
		}
		st := m.Stats
		ru.Workers += st.Workers

		ru.Requests.Optimize += st.Requests.Optimize
		ru.Requests.Batch += st.Requests.Batch
		ru.Requests.Lattice += st.Requests.Lattice
		ru.Requests.Jobs += st.Requests.Jobs
		ru.Requests.RateLimited += st.Requests.RateLimited

		ru.Cache.KernelHits += st.Cache.KernelHits
		ru.Cache.KernelMisses += st.Cache.KernelMisses
		ru.Cache.KernelDiskHits += st.Cache.KernelDiskHits
		ru.Cache.KernelDiskMisses += st.Cache.KernelDiskMisses
		ru.Cache.PlanHits += st.Cache.PlanHits
		ru.Cache.PlanMisses += st.Cache.PlanMisses
		ru.Cache.DiskHits += st.Cache.DiskHits
		ru.Cache.DiskMisses += st.Cache.DiskMisses
		ru.Cache.CompiledTemplates += st.Cache.CompiledTemplates
		ru.Cache.CompiledTemplateHits += st.Cache.CompiledTemplateHits
		ru.Cache.CompiledTemplateMisses += st.Cache.CompiledTemplateMisses
		ru.Cache.CompiledEvals += st.Cache.CompiledEvals
		ru.Cache.Evictions += st.Cache.Evictions
		ru.Cache.Entries += st.Cache.Entries

		ru.SuiteCache.Hits += st.SuiteCache.Hits
		ru.SuiteCache.Misses += st.SuiteCache.Misses

		ru.Jobs.Queued += st.Jobs.Queued
		ru.Jobs.Running += st.Jobs.Running
		ru.Jobs.Done += st.Jobs.Done
		ru.Jobs.Cancelled += st.Jobs.Cancelled

		ru.Phases.Scenarios += st.Phases.Scenarios
		ru.Phases.ComputeUs += st.Phases.ComputeUs
		ru.Phases.AlignUs += st.Phases.AlignUs
		ru.Phases.KernelUs += st.Phases.KernelUs
		ru.Phases.StoreUs += st.Phases.StoreUs
		ru.Phases.CostUs += st.Phases.CostUs
		ru.Phases.TotalUs += st.Phases.TotalUs

		if st.Store != nil {
			if ru.Store == nil {
				ru.Store = &api.StoreStats{}
			}
			ru.Store.PlanPuts += st.Store.PlanPuts
			ru.Store.PlanGetHits += st.Store.PlanGetHits
			ru.Store.PlanGetMisses += st.Store.PlanGetMisses
			ru.Store.KernelPuts += st.Store.KernelPuts
			ru.Store.KernelGetHits += st.Store.KernelGetHits
			ru.Store.KernelGetMisses += st.Store.KernelGetMisses
			ru.Store.Warnings += st.Store.Warnings
		}
		if st.Sweeper != nil {
			if ru.Sweeper == nil {
				ru.Sweeper = &api.SweeperStats{IntervalSeconds: st.Sweeper.IntervalSeconds}
			}
			ru.Sweeper.Runs += st.Sweeper.Runs
			ru.Sweeper.JobsPruned += st.Sweeper.JobsPruned
			ru.Sweeper.GCSweeps += st.Sweeper.GCSweeps
			ru.Sweeper.GCRemoved += st.Sweeper.GCRemoved
			ru.Sweeper.GCBytesFreed += st.Sweeper.GCBytesFreed
		}
		if st.Node != nil {
			ru.ForwardsOut += st.Node.ForwardsOut
			ru.ForwardsIn += st.Node.ForwardsIn
			ru.ForwardFallbacks += st.Node.ForwardFallbacks
			ru.PeerPlanHits += st.Node.PeerPlanHits
			ru.PlansReplicated += st.Node.PlansReplicated
		}
	}
	if lookups := ru.Cache.PlanHits + ru.Cache.PlanMisses; lookups > 0 {
		ru.PlanHitRate = float64(ru.Cache.PlanHits+ru.Cache.DiskHits) / float64(lookups)
	}
	if lookups := ru.Cache.KernelHits + ru.Cache.KernelMisses; lookups > 0 {
		ru.KernelHitRate = float64(ru.Cache.KernelHits+ru.Cache.KernelDiskHits) / float64(lookups)
	}
	return ru
}

// assembleTrace stitches td — a locally recorded trace — together with
// the span sets of every peer the request was forwarded to, identified
// by the peer attribute on cluster.forward spans. Peers are fetched
// concurrently (skipping ones marked down), sorted by node ID for a
// deterministic merged span order, and peers that could not contribute
// (down, unreachable, or with the trace already evicted from their
// ring) are returned as the missing-nodes list rather than erroring.
// Standalone, or with no forwards in the trace, td comes back as is.
func (s *Server) assembleTrace(ctx context.Context, td *trace.TraceData) (*trace.TraceData, []string) {
	rt := s.clusterRt
	if rt == nil {
		return td, nil
	}
	seen := map[string]bool{}
	var order []string
	for _, sd := range td.Spans {
		peer := sd.Attrs["peer"]
		if sd.Name != "cluster.forward" || peer == "" || peer == rt.cl.Self() || seen[peer] {
			continue
		}
		seen[peer] = true
		order = append(order, peer)
	}
	if len(order) == 0 {
		return td, nil
	}
	sort.Strings(order)
	remotes := make([]*trace.TraceData, len(order))
	var wg sync.WaitGroup
	for i, peer := range order {
		pc, known := rt.peers[peer]
		if !known || !rt.cl.Health().Up(peer) {
			continue
		}
		wg.Add(1)
		go func(i int, peer string, pc *client.Client) {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, fleetFetchTimeout)
			defer cancel()
			ftd, err := pc.FetchTrace(fctx, td.TraceID)
			if err != nil {
				var ae *api.Error
				if errors.As(err, &ae) {
					// The peer answered: an evicted trace is a healthy miss.
					rt.cl.Health().ReportSuccess(peer)
				} else {
					rt.cl.Health().ReportFailure(peer, err)
				}
				return
			}
			rt.cl.Health().ReportSuccess(peer)
			remotes[i] = ftd
		}(i, peer, pc)
	}
	wg.Wait()
	var fetched []*trace.TraceData
	var missing []string
	for i, peer := range order {
		if remotes[i] != nil {
			fetched = append(fetched, remotes[i])
		} else {
			missing = append(missing, peer)
		}
	}
	return trace.Merge(td, fetched...), missing
}

// handlePeerTrace serves the cluster-internal GET /debug/traces/{id}
// on the API listener: the local span set only, never fanning out —
// the ?local=1 convention that makes cross-node assembly loop-free.
// Peer-gated like the replication endpoints.
func (s *Server) handlePeerTrace(w http.ResponseWriter, r *http.Request) {
	if !s.isPeerRequest(r) {
		s.writeError(w, errNotPeer())
		return
	}
	id := r.PathValue("id")
	td, ok := s.tracer.Get(id)
	if !ok {
		s.writeError(w, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no recorded trace %q", id))
		return
	}
	writeJSON(w, http.StatusOK, td)
}

// handlePeerMetrics serves the cluster-internal GET /metrics/peer on
// the API listener: this node's raw exposition, fetched by peers'
// /metrics/cluster federation (the ops listener's address is not part
// of cluster membership, so the scrape must ride the API port).
func (s *Server) handlePeerMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.isPeerRequest(r) {
		s.writeError(w, errNotPeer())
		return
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	s.obs.reg.WriteText(w)
}

// handleMetricsCluster serves GET /metrics/cluster on the ops
// listener: the fleet's expositions — this node's own scrape plus
// every reachable peer's, fetched concurrently — federated into one
// valid exposition with a node label distinguishing the members.
// Unreachable peers are simply absent from the output.
func (s *Server) handleMetricsCluster(w http.ResponseWriter, r *http.Request) {
	var selfBuf bytes.Buffer
	s.obs.reg.WriteText(&selfBuf)
	selfID := s.nodeID()
	if selfID == "" {
		selfID = "self"
	}
	sources := []metrics.FederateSource{{Node: selfID, Text: selfBuf.String()}}
	if rt := s.clusterRt; rt != nil {
		peers := rt.cl.Peers()
		texts := make([]string, len(peers))
		var wg sync.WaitGroup
		for i, peer := range peers {
			if !rt.cl.Health().Up(peer) {
				continue
			}
			wg.Add(1)
			go func(i int, peer string, pc *client.Client) {
				defer wg.Done()
				fctx, cancel := context.WithTimeout(r.Context(), fleetFetchTimeout)
				defer cancel()
				text, err := pc.FetchMetrics(fctx)
				if err != nil {
					var ae *api.Error
					if !errors.As(err, &ae) {
						rt.cl.Health().ReportFailure(peer, err)
					}
					return
				}
				rt.cl.Health().ReportSuccess(peer)
				texts[i] = string(text)
			}(i, peer, rt.peers[peer])
		}
		wg.Wait()
		for i, peer := range peers {
			if texts[i] != "" {
				sources = append(sources, metrics.FederateSource{Node: peer, Text: texts[i]})
			}
		}
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i].Node < sources[j].Node })
	w.Header().Set("Content-Type", metrics.ContentType)
	metrics.Federate(w, sources)
}

// healthzBody builds the liveness body shared by the API and ops
// /healthz endpoints. Clustered daemons report their fleet view:
// peers_up/peers_total, and status degrades to "degraded" — still
// HTTP 200; the node itself serves — when any peer is marked down.
func (s *Server) healthzBody() map[string]any {
	body := map[string]any{"status": "ok", "version": buildinfo.Version}
	rt := s.clusterRt
	if rt == nil {
		return body
	}
	body["node"] = rt.cl.Self()
	up, total := 0, 0
	for _, st := range rt.cl.Health().Status() {
		total++
		if st.Up {
			up++
		}
	}
	body["peers_up"] = up
	body["peers_total"] = total
	if up < total {
		body["status"] = "degraded"
	}
	return body
}
