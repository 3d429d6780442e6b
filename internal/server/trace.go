package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/trace"
)

// TraceHeader is the response header echoing the request's trace ID,
// so any client (or error report) can be correlated with
// GET /debug/traces/{id} on the ops listener.
const TraceHeader = "Trace-Id"

// traced is the outermost middleware: every request runs under a root
// span — adopted from a valid inbound W3C traceparent header, freshly
// minted otherwise — whose ID is echoed in the Trace-Id response
// header before the handler runs. After dispatch it closes the root
// span with the matched route and status, records the trace, and
// writes the structured request log; requests slower than
// Options.TraceSlow are promoted to a warning carrying the full span
// tree.
func (s *Server) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, root := trace.StartRoot(r.Context(), s.tracer, "http", r.Header.Get(trace.Header))
		root.Set("method", r.Method)
		traceID := root.TraceID().String()
		w.Header().Set(TraceHeader, traceID)
		// The mux sets r.Pattern on the request pointer it serves, so
		// the re-contexted request must be the one passed down — and the
		// one read back for the endpoint label.
		r = r.WithContext(ctx)
		tw := &obsResponseWriter{ResponseWriter: w}
		next.ServeHTTP(tw, r)

		dur := time.Since(start)
		endpoint, status := endpointLabel(r), tw.statusCode()
		root.Set("endpoint", endpoint).SetInt("status", int64(status))
		root.EndWith(dur)

		slow := s.traceSlow > 0 && dur >= s.traceSlow
		level := slog.LevelInfo
		if slow {
			level = slog.LevelWarn
		}
		if !s.logger.Enabled(r.Context(), level) {
			return
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", endpoint),
			slog.Int("status", status),
			slog.Duration("duration", dur),
			slog.String("trace_id", traceID),
		}
		if !slow {
			s.logger.LogAttrs(r.Context(), level, "request", attrs...)
			return
		}
		if td, ok := s.tracer.Get(traceID); ok {
			// Clustered, a slow request may have spent its time on a
			// peer: stitch the remote span sets in so the warning shows
			// the whole tree (assembleTrace is a no-op standalone or
			// when nothing was forwarded).
			merged, missing := s.assembleTrace(r.Context(), td)
			attrs = append(attrs, slog.String("spans", "\n"+merged.TreeString()))
			if len(missing) > 0 {
				attrs = append(attrs, slog.Any("missing_nodes", missing))
			}
		}
		s.logger.LogAttrs(r.Context(), level, "slow request", attrs...)
	})
}

// phaseBreakdown maps the engine's per-scenario attribution onto the
// wire type (nil in, nil out).
func phaseBreakdown(ph *engine.PhaseTimes) *api.PhaseBreakdown {
	if ph == nil {
		return nil
	}
	return &api.PhaseBreakdown{
		PlanSource: ph.PlanSource,
		ComputeUs:  ph.ComputeUs,
		AlignUs:    ph.AlignUs,
		KernelUs:   ph.KernelUs,
		KernelOps:  ph.KernelOps,
		StoreUs:    ph.StoreUs,
		CostUs:     ph.CostUs,
		TotalUs:    ph.TotalUs,
	}
}

// traceSummary is one entry of the GET /debug/traces listing.
type traceSummary struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationUs float64   `json:"duration_us"`
	Spans      int       `json:"spans"`
	// NodeID is the recording cluster member ("" standalone); Status is
	// the root span's HTTP status (0 for non-request traces such as
	// async jobs) — enough to triage a listing without opening each
	// trace.
	NodeID string `json:"node_id,omitempty"`
	Status int    `json:"status,omitempty"`
}

// traceListResponse is the GET /debug/traces body.
type traceListResponse struct {
	Traces []traceSummary `json:"traces"`
	// Held / Total report ring occupancy: traces currently retrievable
	// versus ever recorded.
	Held  int    `json:"held"`
	Total uint64 `json:"total"`
}

// traceDetail is the GET /debug/traces/{id} body: the recorded trace
// with its spans resolved into a tree — clustered, the tree merged
// from every node the request touched.
type traceDetail struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationUs float64   `json:"duration_us"`
	Dropped    int       `json:"dropped_spans,omitempty"`
	// NodeID is the node that served this detail (the trace's local
	// recorder); MissingNodes lists peers the request was forwarded to
	// whose span sets could not be fetched (down, or trace evicted).
	NodeID       string            `json:"node_id,omitempty"`
	MissingNodes []string          `json:"missing_nodes,omitempty"`
	Spans        []*trace.SpanNode `json:"spans"`
}

// handleTraces lists recently recorded traces, newest first. Query
// parameters: min (a Go duration; only traces at least that long) and
// limit (at most that many entries).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var min time.Duration
	if v := r.URL.Query().Get("min"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.writeError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad min %q (want a Go duration like 50ms)", v))
			return
		}
		min = d
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad limit %q (want a non-negative integer)", v))
			return
		}
		limit = n
	}
	resp := traceListResponse{Traces: []traceSummary{}, Held: s.tracer.Len(), Total: s.tracer.Total()}
	for _, ts := range s.tracer.List(min, limit) {
		sum := traceSummary{
			TraceID:    ts.TraceID,
			Name:       ts.Root.Name,
			Start:      ts.Root.Start,
			DurationUs: ts.Root.DurationUs,
			Spans:      ts.Spans,
			NodeID:     ts.Root.NodeID,
		}
		if st, err := strconv.Atoi(ts.Root.Attrs["status"]); err == nil {
			sum.Status = st
		}
		resp.Traces = append(resp.Traces, sum)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	td, ok := s.tracer.Get(id)
	if !ok {
		s.writeError(w, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no recorded trace %q (the ring holds the most recent %d)", id, s.tracer.Len()))
		return
	}
	// Clustered, assemble the full cross-node tree unless the caller
	// asked for the local span set only (?local=1 — the loop guard the
	// assembly fan-out itself uses).
	var missing []string
	if r.URL.Query().Get("local") == "" {
		td, missing = s.assembleTrace(r.Context(), td)
	}
	writeJSON(w, http.StatusOK, traceDetail{
		TraceID:      td.TraceID,
		Name:         td.Name,
		Start:        td.Start,
		DurationUs:   td.DurationUs,
		Dropped:      td.Dropped,
		NodeID:       td.NodeID,
		MissingNodes: missing,
		Spans:        td.Tree(),
	})
}
