package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/store"
	"repro/internal/trace"
)

// DefaultJobsCap bounds retained finished jobs; running jobs are
// never evicted, so a burst of submissions can exceed the cap until
// its jobs finish.
const DefaultJobsCap = 64

// jobManager owns the async batch jobs of one server: submission,
// polling, cancellation, results, bounded retention, and — when the
// daemon has a store — persistence. Finished jobs are written to the
// store's jobs/ tier and reloaded at startup, so completed work
// survives restarts; the ttl/keep retention policy of GET /v1/jobs
// prunes both the in-memory map and the persisted tier.
type jobManager struct {
	mu    sync.Mutex
	seq   int
	jobs  map[string]*jobState
	order []string // submission order, oldest first (for listing + eviction)
	cap   int
	store *store.Store // nil: memory only
}

// jobState is one job: the wire-visible Job plus the run machinery.
// The mutex guards every field; the run goroutine and HTTP handlers
// touch jobs concurrently.
type jobState struct {
	mu      sync.Mutex
	job     api.Job
	cancel  context.CancelFunc
	lines   []api.BatchLine
	summary api.BatchSummaryBody
}

func newJobManager(capJobs int, st *store.Store) *jobManager {
	if capJobs <= 0 {
		capJobs = DefaultJobsCap
	}
	m := &jobManager{jobs: make(map[string]*jobState), cap: capJobs, store: st}
	m.reload()
	return m
}

// reload restores persisted finished jobs from the store, oldest
// first, and advances the id sequence past them so new submissions
// never collide with reloaded ids. Unreadable records are skipped
// (the store logs them); reloading never fails the daemon.
func (m *jobManager) reload() {
	if m.store == nil {
		return
	}
	ids, err := m.store.ListJobs()
	if err != nil {
		return
	}
	for _, id := range ids {
		rec, err := m.store.LoadJob(id)
		if err != nil || !rec.Job.Status.Finished() {
			continue
		}
		js := &jobState{
			job:     rec.Job,
			cancel:  func() {}, // nothing to cancel: the run is long gone
			lines:   rec.Results,
			summary: rec.Summary,
		}
		m.jobs[id] = js
		m.order = append(m.order, id)
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
	}
	m.evictLocked()
}

// persist writes a finished job through to the store (no-op without
// one). The write happens under the manager lock, after re-checking
// membership: a job becomes visibly Finished before it is persisted,
// so a concurrent retention prune (or cap eviction) may have already
// retired it — writing the file afterwards would resurrect a
// deliberately deleted job at the next restart. Failures degrade to
// memory-only retention; the store records a warning visible in
// /v1/stats.
func (m *jobManager) persist(js *jobState) {
	if m.store == nil {
		return
	}
	js.mu.Lock()
	rec := store.JobRecord{Job: js.job, Results: js.lines, Summary: js.summary}
	js.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[rec.Job.ID]; !ok {
		return // retired while finishing: stay deleted
	}
	_ = m.store.SaveJob(&rec)
}

// create registers a queued job for spec over a suite of total
// scenarios and returns it with its private run context.
func (m *jobManager) create(spec api.BatchSpec, total int) (*jobState, context.Context) {
	// Jobs outlive the submitting request, so the run context is
	// rooted at Background, not at the request.
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	js := &jobState{
		job: api.Job{
			ID:       fmt.Sprintf("job-%06d", m.seq),
			Status:   api.JobQueued,
			Spec:     spec,
			Created:  time.Now().UTC(),
			Progress: api.JobProgress{Total: total},
		},
		cancel: cancel,
	}
	m.jobs[js.job.ID] = js
	m.order = append(m.order, js.job.ID)
	m.evictLocked()
	return js, ctx
}

// evictLocked drops the oldest finished jobs beyond the cap, from
// memory and from the persisted tier (the cap is the retention bound;
// a job evicted here is gone, not merely cold).
func (m *jobManager) evictLocked() {
	if len(m.jobs) <= m.cap {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		js := m.jobs[id]
		if len(m.jobs) > m.cap && js.snapshot().Status.Finished() {
			m.dropLocked(id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// dropLocked removes one job from the map and the persisted tier
// (the caller maintains m.order).
func (m *jobManager) dropLocked(id string) {
	delete(m.jobs, id)
	if m.store != nil {
		_ = m.store.DeleteJob(id)
	}
}

// prune applies the ttl/keep retention policy and returns how many
// jobs it dropped: finished jobs whose completion is older than ttl
// are dropped (0: no age bound), then all but the newest keep
// finished jobs are dropped (0: no count bound). The two criteria run
// as separate passes in that order — otherwise an expired job later
// in submission order would inflate the finished count and push a
// non-expired older job over the count bound. Queued and running jobs
// are never pruned. Dropping removes the job from memory and from the
// persisted tier.
func (m *jobManager) prune(ttl time.Duration, keep int, now time.Time) int {
	if ttl <= 0 && keep <= 0 {
		return 0
	}
	dropped := 0
	m.mu.Lock()
	defer m.mu.Unlock()
	if ttl > 0 {
		kept := m.order[:0]
		for _, id := range m.order {
			job := m.jobs[id].snapshot()
			if job.Status.Finished() && job.Finished != nil && now.Sub(*job.Finished) > ttl {
				m.dropLocked(id)
				dropped++
				continue
			}
			kept = append(kept, id)
		}
		m.order = kept
	}
	if keep > 0 {
		finished := 0
		for _, id := range m.order {
			if m.jobs[id].snapshot().Status.Finished() {
				finished++
			}
		}
		kept := m.order[:0]
		for _, id := range m.order {
			// m.order is oldest first, so dropping while more than keep
			// finished jobs remain keeps exactly the newest keep.
			if m.jobs[id].snapshot().Status.Finished() && finished > keep {
				m.dropLocked(id)
				dropped++
				finished--
				continue
			}
			kept = append(kept, id)
		}
		m.order = kept
	}
	return dropped
}

func (m *jobManager) get(id string) (*jobState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	return js, ok
}

// list snapshots every job, most recent first.
func (m *jobManager) list() []api.Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]api.Job, 0, len(m.order))
	for i := len(m.order) - 1; i >= 0; i-- {
		out = append(out, m.jobs[m.order[i]].snapshot())
	}
	return out
}

func (m *jobManager) stats() api.JobStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var st api.JobStats
	for _, js := range m.jobs {
		switch js.snapshot().Status {
		case api.JobQueued:
			st.Queued++
		case api.JobRunning:
			st.Running++
		case api.JobDone:
			st.Done++
		case api.JobCancelled:
			st.Cancelled++
		}
	}
	return st
}

// shutdown cancels every unfinished job; the server closes the
// session only after their RunStreams return.
func (m *jobManager) shutdown() {
	m.mu.Lock()
	states := make([]*jobState, 0, len(m.jobs))
	for _, js := range m.jobs {
		states = append(states, js)
	}
	m.mu.Unlock()
	for _, js := range states {
		js.cancel()
	}
}

// snapshot copies the wire-visible job under the lock.
func (js *jobState) snapshot() api.Job {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.job
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.jobReqs.Add(1)
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
	js, ctx := s.jobs.create(spec, len(rb.suite))
	// The job outlives the submitting request, so it gets its own root
	// trace — minted before the 202 so the response carries the ID —
	// linked back to the submitting request's trace via submitted_by.
	ctx, root := trace.StartRoot(ctx, s.tracer, "job", "")
	root.Set("job_id", js.job.ID)
	if sub := trace.FromContext(r.Context()); sub != nil {
		root.Set("submitted_by", sub.TraceID().String())
	}
	js.mu.Lock()
	js.job.TraceID = root.TraceID().String()
	js.mu.Unlock()
	s.logger.Info("job submitted",
		slog.String("job_id", js.job.ID),
		slog.Int("scenarios", len(rb.suite)),
		slog.String("trace_id", js.job.TraceID))
	// Snapshot before the launch: a short job can finish before the
	// handler writes, and the 202 must say queued.
	accepted := js.snapshot()
	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		s.runJob(ctx, js, rb, root)
	}()
	writeJSON(w, http.StatusAccepted, accepted)
}

// runJob drives one async batch on the shared session, under the
// job's own root span.
func (s *Server) runJob(ctx context.Context, js *jobState, rb *resolvedBatch, root *trace.Span) {
	js.mu.Lock()
	now := time.Now().UTC()
	js.job.Status = api.JobRunning
	js.job.Started = &now
	js.mu.Unlock()

	sum, runErr := s.runBatch(ctx, rb, func(line api.BatchLine) {
		js.mu.Lock()
		js.lines = append(js.lines, line)
		js.job.Progress.Done = len(js.lines)
		js.mu.Unlock()
	})

	js.mu.Lock()
	done := time.Now().UTC()
	js.job.Finished = &done
	js.summary = sum
	if runErr != nil {
		js.job.Status = api.JobCancelled
		js.job.Error = runErr.Error()
		root.Set("error", js.job.Error)
	} else {
		js.job.Status = api.JobDone
	}
	job := js.job
	js.mu.Unlock()
	root.Set("status", string(job.Status)).SetInt("scenarios", int64(sum.Scenarios)).End()
	s.logger.Info("job finished",
		slog.String("job_id", job.ID),
		slog.String("status", string(job.Status)),
		slog.Int("scenarios", sum.Scenarios),
		slog.Int("errors", sum.Errors),
		slog.Duration("duration", done.Sub(job.Created)),
		slog.String("trace_id", job.TraceID))
	// Persist the terminal state so the job survives a daemon restart
	// (cancelled jobs too: their completed prefix is real work).
	s.jobs.persist(js)
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobState, bool) {
	id := r.PathValue("id")
	js, ok := s.jobs.get(id)
	if !ok {
		s.writeError(w, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no job %q", id))
		return nil, false
	}
	return js, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if js, ok := s.jobFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, js.snapshot())
	}
}

// handleJobList lists jobs, most recent first. The optional ttl and
// keep query parameters apply the retention policy before listing:
// ?ttl=1h drops finished jobs that completed more than an hour ago,
// ?keep=10 drops all but the 10 newest finished jobs. Both prune the
// persisted tier too, so retention survives restarts; queued and
// running jobs are never pruned.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var ttl time.Duration
	var keep int
	if v := q.Get("ttl"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.writeError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad ttl %q (want a positive Go duration like 30m)", v))
			return
		}
		ttl = d
	}
	if v := q.Get("keep"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad keep %q (want a non-negative integer)", v))
			return
		}
		keep = n
	}
	s.jobs.prune(ttl, keep, time.Now().UTC())
	writeJSON(w, http.StatusOK, api.JobList{Jobs: s.jobs.list()})
}

// handleJobCancel cancels a queued or running job. Cancelling a
// finished job is a harmless no-op returning its final state, so
// clients can fire-and-forget.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	js, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	js.cancel()
	writeJSON(w, http.StatusOK, js.snapshot())
}

func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	js, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	js.mu.Lock()
	job := js.job
	results := append([]api.BatchLine(nil), js.lines...)
	summary := js.summary
	js.mu.Unlock()
	if !job.Status.Finished() {
		s.writeError(w, api.Errorf(http.StatusConflict, api.CodeJobRunning,
			"job %s is %s (%d/%d done); poll until it finishes", job.ID, job.Status, job.Progress.Done, job.Progress.Total))
		return
	}
	writeJSON(w, http.StatusOK, api.JobResults{Job: job, Results: results, Summary: summary})
}
