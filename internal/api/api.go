// Package api is the typed wire contract of the resoptd HTTP API:
// every request, response, job and error body exchanged over the
// versioned /v1 route set, shared verbatim by internal/server and
// internal/client so the two sides can never drift. The package is
// deliberately a leaf — it imports nothing from this module — which
// keeps the contract importable from anywhere (clients, the store's
// snapshot format, CI drivers) without dragging the engine along.
//
// Versioning: Version names the current wire version; servers stamp
// every response with the VersionHeader header and serve the route
// set under the /v1 prefix. The pre-/v1 unversioned endpoints
// (POST /optimize, POST /batch, GET /stats) were removed.
package api

import (
	"encoding/json"
	"fmt"
	"time"
)

// Version is the wire-contract version, also the route prefix
// (/ + Version + /...).
const Version = "v1"

// VersionHeader is the response header naming the wire version that
// produced the body.
const VersionHeader = "Resopt-Api-Version"

// MaxSuiteNests bounds per-request suite generation (random + deep)
// for batch and job specs.
const MaxSuiteNests = 1000

// Error is the typed error body of every non-2xx response, wrapped in
// an envelope: {"error": {"status": ..., "code": ..., "message": ...}}.
// It implements the error interface, so clients surface it directly.
type Error struct {
	// Status is the HTTP status the error was (or should be) sent with.
	Status int `json:"status"`
	// Code is a stable machine-readable cause from the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// TraceID identifies the server-side trace of the failed request
	// (also echoed in the Trace-Id response header), so an error report
	// can be correlated with /debug/traces on the ops listener.
	TraceID string `json:"trace_id,omitempty"`
	// Node is the cluster node ID that produced the error, when the
	// daemon runs clustered — with forwarding in play, the answering
	// node is not always the one the client dialed.
	Node string `json:"node,omitempty"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("api: %s (%d %s)", e.Message, e.Status, e.Code)
}

// Errorf builds a typed error.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// Stable error codes.
const (
	CodeBadRequest    = "bad_request"   // malformed body or invalid field values
	CodeUnprocessable = "unprocessable" // well-formed input the optimizer rejects
	CodeNotFound      = "not_found"     // unknown job, snapshot or route
	CodeNoStore       = "no_store"      // the endpoint needs a plan store the daemon lacks
	CodeJobRunning    = "job_running"   // results requested before the job finished
	CodeRateLimited   = "rate_limited"  // per-client token bucket exhausted
	CodeCancelled     = "cancelled"     // the request's context was cancelled
	CodeForbidden     = "forbidden"     // cluster-internal endpoint or bad peer credential
	CodeInternal      = "internal"      // unexpected server-side failure
)

// ErrorEnvelope is the JSON wrapper every error body uses.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// OptimizeRequest is the POST /v1/optimize body. Exactly one of
// Example (a built-in nest name, see `resopt -list`) or Nest
// (nestlang source) selects the program.
type OptimizeRequest struct {
	Example string `json:"example,omitempty"`
	Nest    string `json:"nest,omitempty"`
	// M is the target virtual grid dimension (default 2).
	M int `json:"m,omitempty"`
	// Machine is a spec like "fattree32" or "mesh4x4"
	// (default fattree32); N and ElemBytes size the payload
	// (defaults 16 and 64).
	Machine   string `json:"machine,omitempty"`
	N         int    `json:"n,omitempty"`
	ElemBytes int64  `json:"elem_bytes,omitempty"`
	// NoMacro / NoDecomposition are the heuristic ablations.
	NoMacro         bool `json:"no_macro,omitempty"`
	NoDecomposition bool `json:"no_decomposition,omitempty"`
}

// OptimizeResponse is the POST /v1/optimize reply: the per-class
// communication counts of the optimized nest (identical to a direct
// core.Optimize call) plus the modeled time on the chosen machine.
type OptimizeResponse struct {
	Name         string  `json:"name"`
	Machine      string  `json:"machine"`
	Local        int     `json:"local"`
	Macro        int     `json:"macro"`
	Decomposed   int     `json:"decomposed"`
	General      int     `json:"general"`
	Vectorizable int     `json:"vectorizable"`
	ModelTimeUs  float64 `json:"model_time_us"`
	// Collectives names the collective algorithms the cost model
	// selected for the nest's residual communications (the engine's
	// summary format, e.g. "broadcast=bisection,shift=direct*3").
	Collectives string `json:"collectives,omitempty"`
	// Phases is the server-side cost attribution of this optimization.
	Phases *PhaseBreakdown `json:"phases,omitempty"`
	// Node is the cluster node ID that computed (or served) the
	// answer; with request forwarding this can differ from the node
	// the client dialed. Empty on unclustered daemons.
	Node string `json:"node,omitempty"`
}

// PhaseBreakdown attributes the server-side wall-clock cost of one
// scenario to the optimizer's phases. PlanSource tells where the plan
// came from this request — "compute" (optimized now), "memory"
// (session plan cache), "disk" (plan store) or "peer" (fetched from a
// cluster peer's store); for anything but "compute" the align/kernel
// figures are the recorded cost of the original computation, not time
// spent on this request.
type PhaseBreakdown struct {
	PlanSource string  `json:"plan_source"`
	ComputeUs  float64 `json:"compute_us,omitempty"`
	AlignUs    float64 `json:"align_us,omitempty"`
	KernelUs   float64 `json:"kernel_us,omitempty"`
	KernelOps  int     `json:"kernel_ops,omitempty"`
	StoreUs    float64 `json:"store_us,omitempty"`
	CostUs     float64 `json:"cost_us,omitempty"`
	TotalUs    float64 `json:"total_us"`
}

// BatchSpec is the suite specification shared by POST /v1/batch and
// POST /v1/jobs. Generation fields are deterministic: the same spec
// always resolves to the same suite, which is what lets the server
// cache resolved suites and re-run recorded ones.
type BatchSpec struct {
	Seed   int64 `json:"seed,omitempty"`
	Random int   `json:"random,omitempty"`
	Deep   int   `json:"deep,omitempty"`
	Skew   bool  `json:"skew,omitempty"`
	// BigMeshes adds the tall/flat/square mesh shapes (64×2, 2×64,
	// 16×16) where collective tree shape matters.
	BigMeshes       bool `json:"big_meshes,omitempty"`
	NoExamples      bool `json:"no_examples,omitempty"`
	M               int  `json:"m,omitempty"`
	NoMacro         bool `json:"no_macro,omitempty"`
	NoDecomposition bool `json:"no_decomposition,omitempty"`

	// Snapshot re-runs the suite recorded under this stored snapshot
	// name instead of generating one from the fields above: the server
	// resolves the snapshot's recorded spec, runs it, and reports the
	// scenario-by-scenario diff against the recorded results in the
	// batch summary. Mutually exclusive with the generation fields.
	Snapshot string `json:"snapshot,omitempty"`
	// SaveAs records the run as a named snapshot (with this spec
	// embedded) in the server's store, making it re-runnable by name.
	SaveAs string `json:"save_as,omitempty"`
	// Timings asks for a per-scenario phase breakdown on every batch
	// line. Off by default: the NDJSON stream stays byte-deterministic
	// unless timings are explicitly requested.
	Timings bool `json:"timings,omitempty"`
}

// BatchLine is one NDJSON line of the /v1/batch stream and one entry
// of a job's results.
type BatchLine struct {
	Name         string  `json:"name"`
	Classes      [4]int  `json:"classes"`
	Vectorizable int     `json:"vectorizable"`
	ModelTimeUs  float64 `json:"model_time_us"`
	// Collectives is the scenario's selected-collective summary (see
	// OptimizeResponse.Collectives).
	Collectives string `json:"collectives,omitempty"`
	Err         string `json:"err,omitempty"`
	// Phases is the per-scenario cost attribution, present only when
	// the batch spec set Timings.
	Phases *PhaseBreakdown `json:"phases,omitempty"`
}

// BatchSummary is the final NDJSON line of the /v1/batch stream.
type BatchSummary struct {
	Summary BatchSummaryBody `json:"summary"`
}

// BatchSummaryBody aggregates a batch run.
type BatchSummaryBody struct {
	Scenarios      int     `json:"scenarios"`
	ClassTotals    [4]int  `json:"class_totals"`
	TotalModelTime float64 `json:"total_model_time_us"`
	Errors         int     `json:"errors"`
	// Cancelled marks a run cut short by context cancellation; the
	// preceding lines are the completed prefix.
	Cancelled bool `json:"cancelled,omitempty"`
	// Snapshot is the name the run was recorded under (spec.SaveAs).
	Snapshot string `json:"snapshot,omitempty"`
	// Diff compares the run against the snapshot it was resolved from
	// (spec.Snapshot), computed server-side.
	Diff *DiffSummary `json:"diff,omitempty"`
}

// DiffSummary is the server-side comparison of a re-run against the
// stored snapshot it was resolved from.
type DiffSummary struct {
	Baseline    string `json:"baseline"`
	Unchanged   int    `json:"unchanged"`
	Changed     int    `json:"changed"`
	Regressions int    `json:"regressions"`
	Added       int    `json:"added"`
	Removed     int    `json:"removed"`
}

// LatticeRequest is the POST /v1/lattice body: one nest (by example
// name or nestlang source, exactly one of the two) swept over a
// capacity-planning grid of machine configurations × payload sizes.
// The nest's optimization is structurally compiled once; every lattice
// point is then priced by cheap template evaluation, so wide sweeps
// cost milliseconds instead of one full optimization per point.
type LatticeRequest struct {
	Example string `json:"example,omitempty"`
	Nest    string `json:"nest,omitempty"`
	// M is the target virtual grid dimension (default 2).
	M int `json:"m,omitempty"`
	// N sizes the payload in elements per message (default 16).
	N int `json:"n,omitempty"`
	// Grid is the lattice grammar, e.g.
	// "mesh{4..64}x{2..64}:bytes=1k..16M" (machine extents as values,
	// {a,b,c} lists or {a..b} doubling ranges; the :bytes= suffix sizes
	// the per-element payload, defaulting to 64).
	Grid string `json:"grid"`
	// NoMacro / NoDecomposition are the heuristic ablations.
	NoMacro         bool `json:"no_macro,omitempty"`
	NoDecomposition bool `json:"no_decomposition,omitempty"`
}

// LatticeRow is one NDJSON line of the /v1/lattice stream: the nest
// priced at one (machine, elem_bytes) lattice point. Rows stream
// machines in grid declaration order with payloads ascending within
// each machine, so switch points along the payload axis are adjacent
// rows.
type LatticeRow struct {
	Machine      string  `json:"machine"`
	ElemBytes    int64   `json:"elem_bytes"`
	Classes      [4]int  `json:"classes"`
	Vectorizable int     `json:"vectorizable"`
	ModelTimeUs  float64 `json:"model_time_us"`
	// Collectives is the selected-collective summary at this point (see
	// OptimizeResponse.Collectives).
	Collectives string `json:"collectives,omitempty"`
	// Switched marks a switch point: the collective selection differs
	// from the previous (smaller) payload on the same machine.
	// SwitchedFrom records the selection it displaced.
	Switched     bool   `json:"switched,omitempty"`
	SwitchedFrom string `json:"switched_from,omitempty"`
}

// LatticeSummary is the final NDJSON line of the /v1/lattice stream.
type LatticeSummary struct {
	Summary LatticeSummaryBody `json:"summary"`
}

// LatticeSummaryBody aggregates a lattice sweep.
type LatticeSummaryBody struct {
	Name     string `json:"name"`
	Grid     string `json:"grid"`
	Points   int    `json:"points"`
	Machines int    `json:"machines"`
	// Switches counts the rows flagged as switch points.
	Switches int `json:"switches"`
}

// JobStatus is the lifecycle state of an async batch job.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobCancelled JobStatus = "cancelled"
)

// Finished reports whether the status is terminal.
func (s JobStatus) Finished() bool { return s == JobDone || s == JobCancelled }

// Job is the POST /v1/jobs reply and the GET /v1/jobs/{id} body: an
// async batch run identified by ID, polled until Status.Finished().
type Job struct {
	ID       string      `json:"id"`
	Status   JobStatus   `json:"status"`
	Spec     BatchSpec   `json:"spec"`
	Created  time.Time   `json:"created"`
	Started  *time.Time  `json:"started,omitempty"`
	Finished *time.Time  `json:"finished,omitempty"`
	Progress JobProgress `json:"progress"`
	// Error is the run-level failure, if any (per-scenario failures
	// appear in the results' err fields instead).
	Error string `json:"error,omitempty"`
	// TraceID identifies the job's own server-side trace (each job
	// runs under a fresh root span, linked to the submitting request
	// via the submitted_by attribute).
	TraceID string `json:"trace_id,omitempty"`
}

// JobProgress counts completed scenarios out of the resolved suite.
type JobProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobList is the GET /v1/jobs body, most recent first.
type JobList struct {
	Jobs []Job `json:"jobs"`
}

// JobResults is the GET /v1/jobs/{id}/results body, available once
// the job finished (a cancelled job returns its completed prefix).
type JobResults struct {
	Job     Job              `json:"job"`
	Results []BatchLine      `json:"results"`
	Summary BatchSummaryBody `json:"summary"`
}

// SnapshotInfo describes one stored snapshot in GET /v1/snapshots.
type SnapshotInfo struct {
	Name           string  `json:"name"`
	Scenarios      int     `json:"scenarios"`
	Errors         int     `json:"errors"`
	TotalModelTime float64 `json:"total_model_time_us"`
	// Rerunnable is set when the snapshot recorded its generating
	// spec, so it can be submitted back via BatchSpec.Snapshot.
	Rerunnable bool `json:"rerunnable"`
}

// SnapshotList is the GET /v1/snapshots body.
type SnapshotList struct {
	Snapshots []SnapshotInfo `json:"snapshots"`
}

// CacheStats mirrors the engine's in-memory cache counters.
type CacheStats struct {
	KernelHits       uint64 `json:"kernel_hits"`
	KernelMisses     uint64 `json:"kernel_misses"`
	KernelDiskHits   uint64 `json:"kernel_disk_hits"`
	KernelDiskMisses uint64 `json:"kernel_disk_misses"`
	PlanHits         uint64 `json:"plan_hits"`
	PlanMisses       uint64 `json:"plan_misses"`
	DiskHits         uint64 `json:"disk_hits"`
	DiskMisses       uint64 `json:"disk_misses"`
	// Deprecated: SelectHits and SelectMisses are always 0. The
	// engine keeps no selection memo; the session pricer's template
	// counters (Compiled*) cover collective selection.
	SelectHits   uint64 `json:"select_hits"`
	SelectMisses uint64 `json:"select_misses"`
	// Compiled* mirror the session pricer: its selection-template
	// cache and evaluation counter. Compiled lattice artifacts are
	// views of plan-tier entries, counted under Plan* and Disk*.
	CompiledTemplates      int    `json:"compiled_templates"`
	CompiledTemplateHits   uint64 `json:"compiled_template_hits"`
	CompiledTemplateMisses uint64 `json:"compiled_template_misses"`
	CompiledEvals          uint64 `json:"compiled_evals"`
	Evictions              uint64 `json:"evictions"`
	Entries                int    `json:"entries"`
}

// StoreStats mirrors the plan/kernel store's traffic counters.
type StoreStats struct {
	PlanPuts        uint64 `json:"plan_puts"`
	PlanGetHits     uint64 `json:"plan_get_hits"`
	PlanGetMisses   uint64 `json:"plan_get_misses"`
	KernelPuts      uint64 `json:"kernel_puts"`
	KernelGetHits   uint64 `json:"kernel_get_hits"`
	KernelGetMisses uint64 `json:"kernel_get_misses"`
	// Deprecated: CompiledPuts is always 0. The store no longer has a
	// compiled tier (compiled artifacts persist as plans); the field
	// stays on the wire until its remaining readers drop it.
	CompiledPuts uint64 `json:"compiled_puts"`
	Warnings     uint64 `json:"warnings"`
}

// SuiteCacheStats counts batch-spec resolutions served from the
// resolved-suite cache versus freshly generated.
type SuiteCacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// RequestStats counts requests per endpoint family.
type RequestStats struct {
	Optimize    uint64 `json:"optimize"`
	Batch       uint64 `json:"batch"`
	Lattice     uint64 `json:"lattice"`
	Jobs        uint64 `json:"jobs"`
	RateLimited uint64 `json:"rate_limited"`
}

// JobStats counts jobs by lifecycle state.
type JobStats struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Cancelled int `json:"cancelled"`
}

// SweeperStats reports the daemon's background sweeper: how often it
// has ticked and what it has retired. Present in StatsResponse only
// when the daemon runs with a sweep interval (resoptd
// -sweep-interval). The GC totals are store-wide — they include
// sweeps triggered manually through the same store handle.
type SweeperStats struct {
	IntervalSeconds float64 `json:"interval_seconds"`
	Runs            uint64  `json:"runs"`
	JobsPruned      uint64  `json:"jobs_pruned"`
	GCSweeps        uint64  `json:"gc_sweeps"`
	GCRemoved       uint64  `json:"gc_removed"`
	GCBytesFreed    int64   `json:"gc_bytes_freed"`
}

// PhaseTotals is the session-wide accumulation of PhaseBreakdown
// across every scenario the daemon has optimized: where the engine's
// time actually goes. Align/kernel/compute time counts only scenarios
// whose plans were computed this session (cache and store hits
// contribute their store/cost/total figures but not the historical
// compute cost).
type PhaseTotals struct {
	Scenarios uint64  `json:"scenarios"`
	ComputeUs float64 `json:"compute_us"`
	AlignUs   float64 `json:"align_us"`
	KernelUs  float64 `json:"kernel_us"`
	// Deprecated: SelectUs is always 0. Selection time is part of
	// CostUs.
	SelectUs float64 `json:"select_us"`
	StoreUs  float64 `json:"store_us"`
	CostUs   float64 `json:"cost_us"`
	TotalUs  float64 `json:"total_us"`
}

// ForwardHeader marks a request as forwarded by a cluster peer; its
// value is the sending node's ID. It is both the loop guard (a
// forwarded request is never forwarded again) and the intra-cluster
// credential that exempts peer traffic from the public rate limit —
// a trusted-network assumption, like the rest of the static-member
// cluster design.
const ForwardHeader = "X-Resopt-Forwarded"

// PeerStatus is one peer's health, as tracked by the answering node.
type PeerStatus struct {
	Node     string `json:"node"`
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Failures int    `json:"failures,omitempty"`
	LastErr  string `json:"last_error,omitempty"`
	SinceMs  int64  `json:"since_ms,omitempty"`
}

// NodeStats is the "node" section of GET /v1/stats, present when the
// daemon runs clustered: this node's identity and its view of the
// fleet.
type NodeStats struct {
	// ID is this node's cluster ID; RingSize counts members (self
	// included); Replicas is the replication factor R.
	ID       string `json:"id"`
	RingSize int    `json:"ring_size"`
	Replicas int    `json:"replicas"`
	// Peers is this node's health view of every other member.
	Peers []PeerStatus `json:"peers"`
	// ForwardsOut counts requests this node proxied to key owners;
	// ForwardsIn counts forwarded requests it answered for peers.
	// ForwardFallbacks counts forwards that failed over to local
	// compute because the owner was down.
	ForwardsOut      uint64 `json:"forwards_out"`
	ForwardsIn       uint64 `json:"forwards_in"`
	ForwardFallbacks uint64 `json:"forward_fallbacks"`
	// PeerPlanHits counts cold plans served from a peer's store
	// instead of being recomputed; PlansReplicated counts plans this
	// node pushed to ring successors.
	PeerPlanHits    uint64 `json:"peer_plan_hits"`
	PlansReplicated uint64 `json:"plans_replicated"`
}

// PlanExport is the GET /v1/plans/{addr} body and the PUT payload of
// cluster plan replication: the full canonical plan key plus the
// store's records for it. Plans is kept as raw JSON — the record
// schema belongs to the engine/store layer, and the api package is a
// leaf; replication forwards the bytes verbatim.
type PlanExport struct {
	Key   string          `json:"key"`
	Err   string          `json:"err,omitempty"`
	Plans json.RawMessage `json:"plans"`
}

// Cluster-member status strings used by ClusterMemberStats.Status.
const (
	MemberOK          = "ok"
	MemberUnreachable = "unreachable"
)

// ClusterMemberStats is one fleet member's snapshot inside
// GET /v1/cluster/stats. A member that could not be reached within the
// per-peer timeout carries Status "unreachable" and a nil Stats — the
// endpoint degrades per member instead of failing the call.
type ClusterMemberStats struct {
	ID     string `json:"id"`
	URL    string `json:"url"`
	Status string `json:"status"`
	// Error is the fetch failure detail for unreachable members.
	Error string `json:"error,omitempty"`
	// Stats is the member's own GET /v1/stats body (nil when
	// unreachable).
	Stats *StatsResponse `json:"stats,omitempty"`
}

// ClusterRollup aggregates the reachable members' stats into one fleet
// view: plain sums for counters, and hit rates recomputed from the
// summed numerators/denominators (averaging per-node rates would
// weight idle nodes equally with loaded ones).
type ClusterRollup struct {
	Nodes       int `json:"nodes"`
	Unreachable int `json:"unreachable"`
	Workers     int `json:"workers"`

	Requests   RequestStats    `json:"requests"`
	Cache      CacheStats      `json:"cache"`
	SuiteCache SuiteCacheStats `json:"suite_cache"`
	Jobs       JobStats        `json:"jobs"`
	Phases     PhaseTotals     `json:"phases"`
	Store      *StoreStats     `json:"store,omitempty"`
	Sweeper    *SweeperStats   `json:"sweeper,omitempty"`

	// PlanHitRate is (plan + disk hits) / plan lookups across the
	// fleet; KernelHitRate the kernel-memo equivalent. Both are 0 when
	// no lookups have happened.
	PlanHitRate   float64 `json:"plan_hit_rate"`
	KernelHitRate float64 `json:"kernel_hit_rate"`

	// Forwarding totals across members (each forward is counted once as
	// out on the origin and once as in on the owner).
	ForwardsOut      uint64 `json:"forwards_out"`
	ForwardsIn       uint64 `json:"forwards_in"`
	ForwardFallbacks uint64 `json:"forward_fallbacks"`
	PeerPlanHits     uint64 `json:"peer_plan_hits"`
	PlansReplicated  uint64 `json:"plans_replicated"`
}

// ClusterStatsResponse is the GET /v1/cluster/stats body: per-member
// snapshots (answering node included, sorted by member ID) plus the
// fleet rollup. On an unclustered daemon the members list holds just
// the daemon itself.
type ClusterStatsResponse struct {
	// Node is the member that assembled the response.
	Node    string               `json:"node,omitempty"`
	Members []ClusterMemberStats `json:"members"`
	Rollup  ClusterRollup        `json:"rollup"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Version    string          `json:"api_version"`
	Workers    int             `json:"workers"`
	Cache      CacheStats      `json:"cache"`
	Store      *StoreStats     `json:"store,omitempty"`
	SuiteCache SuiteCacheStats `json:"suite_cache"`
	Requests   RequestStats    `json:"requests"`
	Jobs       JobStats        `json:"jobs"`
	// Phases attributes the engine's cumulative wall-clock time to
	// optimizer phases.
	Phases PhaseTotals `json:"phases"`
	// Sweeper is present when the daemon runs its background sweeper.
	Sweeper *SweeperStats `json:"sweeper,omitempty"`
	// Node is present when the daemon runs clustered.
	Node *NodeStats `json:"node,omitempty"`
}
