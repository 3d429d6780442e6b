package server

import (
	"container/list"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/nestlang"
	"repro/internal/scenarios"
	"repro/internal/store"
)

// Request size bounds shared by /v1/optimize and /v1/lattice. The
// machine is bounded by scenarios.MaxMachineNodes when it is parsed.
const (
	// maxN bounds the virtual grid extent: pattern compiles
	// materialize N² element messages.
	maxN = 256
	// maxPayloadBytes bounds N·elem_bytes, the bytes one element row
	// of a residual carries, so that no byte arithmetic downstream
	// (message sizes, contention-group maxima) can wrap int64.
	maxPayloadBytes = 1 << 40
)

// scenarioFromRequest resolves the program and fills the machine and
// payload defaults for a single-nest optimize request. It rejects a
// grid extent above maxN and an element size whose N-element payload
// exceeds maxPayloadBytes.
func scenarioFromRequest(req *api.OptimizeRequest) (*scenarios.Scenario, *api.Error) {
	badReq := func(format string, args ...any) *api.Error {
		return api.Errorf(http.StatusBadRequest, api.CodeBadRequest, format, args...)
	}
	var prog *affine.Program
	switch {
	case req.Example != "" && req.Nest != "":
		return nil, badReq(`give "example" or "nest", not both`)
	case req.Example != "":
		if prog = affine.ExampleByName(req.Example); prog == nil {
			return nil, badReq("unknown example %q", req.Example)
		}
	case req.Nest != "":
		p, err := nestlang.Parse(req.Nest)
		if err != nil {
			return nil, badReq("parsing nest: %v", err)
		}
		prog = p
	default:
		return nil, badReq(`give "example" or "nest"`)
	}
	m := req.M
	if m == 0 {
		m = 2
	}
	ms := scenarios.MachineSpec{Kind: scenarios.FatTree, P: 32}
	if req.Machine != "" {
		var err error
		ms, err = scenarios.ParseMachineSpec(req.Machine)
		if err != nil {
			return nil, badReq("%v", err)
		}
	}
	n := req.N
	if n <= 0 {
		n = 16
	}
	eb := req.ElemBytes
	if eb <= 0 {
		eb = 64
	}
	if n > maxN {
		return nil, badReq("n = %d exceeds %d", n, maxN)
	}
	if eb > maxPayloadBytes/int64(n) {
		return nil, badReq("n·elem_bytes = %d·%d exceeds %d bytes", n, eb, int64(maxPayloadBytes))
	}
	return &scenarios.Scenario{
		Name:      prog.Name,
		Program:   prog,
		M:         m,
		Opts:      core.Options{NoMacro: req.NoMacro, NoDecomposition: req.NoDecomposition},
		Machine:   ms,
		Dist:      distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}},
		N:         n,
		ElemBytes: eb,
	}, nil
}

// resolvedBatch is a batch spec after resolution: the normalized
// generation spec (snapshot names resolved to their recorded specs,
// recording stripped), the concrete suite, and the side-effects the
// runner applies (baseline to diff against, snapshot name to save as).
type resolvedBatch struct {
	genSpec      api.BatchSpec
	suite        []scenarios.Scenario
	baseline     *store.Snapshot
	baselineName string
	saveAs       string
	timings      bool
}

// resolveBatch turns a wire spec into a runnable batch. Both
// POST /v1/batch and POST /v1/jobs go through here, so identical specs
// hit the resolved-suite cache instead of regenerating the suite per
// request, and snapshot-named specs re-run the recorded suite.
func (s *Server) resolveBatch(spec api.BatchSpec) (*resolvedBatch, *api.Error) {
	// Timings and SaveAs are per-request behavior, not suite identity:
	// strip them before the spec is compared, cached or recorded.
	rb := &resolvedBatch{saveAs: spec.SaveAs, timings: spec.Timings}
	spec.SaveAs, spec.Timings = "", false

	if spec.Snapshot != "" {
		if spec != (api.BatchSpec{Snapshot: spec.Snapshot}) {
			return nil, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
				`"snapshot" re-runs a recorded spec; drop the generation fields`)
		}
		if s.store == nil {
			return nil, errNoStore()
		}
		snap, err := s.store.LoadSnapshot(spec.Snapshot)
		if err != nil {
			return nil, api.Errorf(http.StatusNotFound, api.CodeNotFound, "snapshot %q: %v", spec.Snapshot, err)
		}
		if snap.Spec == nil {
			return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeUnprocessable,
				"snapshot %q predates spec recording and cannot be re-run by name", spec.Snapshot)
		}
		rb.baseline, rb.baselineName = snap, spec.Snapshot
		spec = *snap.Spec
		// Recorded specs are already normalized, but never let a
		// hand-edited snapshot chain into another one (or force
		// timings on every re-run).
		spec.Snapshot, spec.SaveAs, spec.Timings = "", "", false
	}

	if spec.Random < 0 || spec.Deep < 0 ||
		spec.Random > api.MaxSuiteNests || spec.Deep > api.MaxSuiteNests ||
		spec.Random+spec.Deep > api.MaxSuiteNests {
		return nil, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
			"random+deep must be in [0, %d]", api.MaxSuiteNests)
	}
	if rb.saveAs != "" {
		if s.store == nil {
			return nil, errNoStore()
		}
		if !store.ValidSnapshotName(rb.saveAs) {
			return nil, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad snapshot name %q", rb.saveAs)
		}
	}

	rb.genSpec = spec
	rb.suite = s.resolver.get(spec)
	return rb, nil
}

// SpecConfig converts a normalized wire spec into the scenario
// generator's configuration. Exported so the CLI records the exact
// spec↔config correspondence the server uses.
func SpecConfig(spec api.BatchSpec) scenarios.Config {
	return scenarios.Config{
		Seed:       spec.Seed,
		Random:     spec.Random,
		Deep:       spec.Deep,
		Skew:       spec.Skew,
		BigMeshes:  spec.BigMeshes,
		NoExamples: spec.NoExamples,
		M:          spec.M,
		Opts:       core.Options{NoMacro: spec.NoMacro, NoDecomposition: spec.NoDecomposition},
	}
}

// suiteCacheCap bounds the resolved-suite cache. Suites are a few
// hundred small structs each; a handful of distinct specs covers a
// polling fleet re-running the same recorded suites.
const suiteCacheCap = 32

// suiteResolver memoizes Generate by spec. Generation is
// deterministic in the spec, and the engine never mutates scenarios
// (workers read them and write only their own results), so one cached
// suite can back any number of concurrent runs.
type suiteResolver struct {
	mu      sync.Mutex
	cap     int
	entries map[api.BatchSpec]*list.Element
	lru     *list.List // front = most recently used; values are *suiteCell

	hits, misses atomic.Uint64
}

type suiteCell struct {
	spec  api.BatchSpec
	suite []scenarios.Scenario
}

func newSuiteResolver(capEntries int) *suiteResolver {
	return &suiteResolver{cap: capEntries, entries: make(map[api.BatchSpec]*list.Element), lru: list.New()}
}

// get returns the suite for spec, generating it at most once while it
// stays cached. BatchSpec is a comparable value type, so the map key
// is the spec itself — no canonical string needed.
func (r *suiteResolver) get(spec api.BatchSpec) []scenarios.Scenario {
	r.mu.Lock()
	if el, ok := r.entries[spec]; ok {
		r.lru.MoveToFront(el)
		suite := el.Value.(*suiteCell).suite
		r.mu.Unlock()
		r.hits.Add(1)
		return suite
	}
	r.mu.Unlock()
	// Generate outside the lock: suites can take milliseconds and two
	// racing requests generating the same deterministic suite is
	// cheaper than serializing every resolution.
	suite := scenarios.Generate(SpecConfig(spec))
	r.mu.Lock()
	if el, ok := r.entries[spec]; ok {
		// Lost the race; adopt the winner's slice so callers share.
		r.lru.MoveToFront(el)
		suite = el.Value.(*suiteCell).suite
	} else {
		r.entries[spec] = r.lru.PushFront(&suiteCell{spec: spec, suite: suite})
		for r.lru.Len() > r.cap {
			back := r.lru.Back()
			r.lru.Remove(back)
			delete(r.entries, back.Value.(*suiteCell).spec)
		}
	}
	r.mu.Unlock()
	r.misses.Add(1)
	return suite
}

func (r *suiteResolver) stats() api.SuiteCacheStats {
	return api.SuiteCacheStats{Hits: r.hits.Load(), Misses: r.misses.Load()}
}
