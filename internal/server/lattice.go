package server

import (
	"encoding/json"
	"net/http"
	"slices"

	"repro/internal/api"
	"repro/internal/compiled"
	"repro/internal/scenarios"
)

// handleLattice serves POST /v1/lattice: one nest swept over a
// capacity-planning grid. The nest's optimization is resolved through
// the plan tier as a compiled artifact (memory → plans/ on disk →
// peer → one structural compile), then every grid point is priced by
// template evaluation against the shared session pricer — the sweep
// never re-optimizes per point. The whole sweep runs first; its rows are
// then written as NDJSON in grid order (machines as declared, payloads
// ascending), each row appended by api.AppendLatticeRow into one
// reused buffer and written through the response writer's buffer,
// with no per-row flush. Switch points — payload thresholds where the
// selected collective schedule changes — are flagged in place, and a
// summary line terminates the stream. Writing stops at the first failed write
// (the client has gone).
func (s *Server) handleLattice(w http.ResponseWriter, r *http.Request) {
	s.lattices.Add(1)
	var req api.LatticeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		s.writeError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	if req.Grid == "" {
		s.writeError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, `"grid" is required`))
		return
	}
	grid, err := compiled.ParseGrid(req.Grid)
	if err != nil {
		s.writeError(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "%v", err))
		return
	}
	// The sweep prices the grid's own payloads; its largest goes in as
	// the element size so the optimize bounds check it too.
	sc, aerr := scenarioFromRequest(&api.OptimizeRequest{
		Example:         req.Example,
		Nest:            req.Nest,
		M:               req.M,
		N:               req.N,
		ElemBytes:       slices.Max(grid.Bytes),
		NoMacro:         req.NoMacro,
		NoDecomposition: req.NoDecomposition,
	})
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	art := s.session.CompiledArtifact(r.Context(), sc)
	if art.Err != "" {
		s.writeError(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeUnprocessable, "optimization failed: %s", art.Err))
		return
	}
	rows := grid.Sweep(art, s.session.Pricer(), sc.Dist, sc.N)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	var buf []byte
	switches := 0
	var spec scenarios.MachineSpec
	machine := ""
	for _, row := range rows {
		if row.Switched {
			switches++
		}
		// Rows are grouped by machine: render each machine name once.
		if machine == "" || row.Machine != spec {
			spec, machine = row.Machine, row.Machine.String()
		}
		buf, err = api.AppendLatticeRow(buf[:0], &api.LatticeRow{
			Machine:      machine,
			ElemBytes:    row.ElemBytes,
			Classes:      row.Point.Classes,
			Vectorizable: row.Point.Vectorizable,
			ModelTimeUs:  row.Point.ModelTime,
			Collectives:  row.Point.Collectives,
			Switched:     row.Switched,
			SwitchedFrom: row.SwitchedFrom,
		})
		if err == nil {
			_, err = w.Write(buf)
		}
		if err != nil {
			return // a non-finite time, or the client is gone
		}
	}
	json.NewEncoder(w).Encode(api.LatticeSummary{Summary: api.LatticeSummaryBody{
		Name:     sc.Name,
		Grid:     req.Grid,
		Points:   len(rows),
		Machines: len(grid.Machines),
		Switches: switches,
	}})
}
