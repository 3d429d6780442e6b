package compiled

import (
	"slices"

	"repro/internal/distrib"
	"repro/internal/scenarios"
)

// SweepRow is one lattice point of a grid sweep: the artifact priced
// at (Machine, ElemBytes), with switch-point detection along the
// payload axis.
type SweepRow struct {
	Machine   scenarios.MachineSpec
	ElemBytes int64
	Point     Point
	// Switched marks that the collective selection differs from the
	// previous (smaller) payload on the same machine; SwitchedFrom is
	// the selection it displaced.
	Switched     bool
	SwitchedFrom string
}

// Sweep prices the artifact at every lattice point of the grid:
// machines in declaration order (outer), payloads ascending (inner),
// so switch points along the payload axis land on adjacent rows. The
// same sweep backs POST /v1/lattice and resopt -lattice. Returns nil
// for an errored artifact.
//
// Each machine instance is built once, not once per point, and a row
// whose collective summary repeats the previous row's shares its
// string: a warm sweep allocates its rows and little else.
func (g *Grid) Sweep(a *Artifact, pr *Pricer, dist distrib.Dist2D, n int) []SweepRow {
	if a.Err != "" {
		return nil
	}
	bytes := slices.Clone(g.Bytes)
	slices.Sort(bytes)
	rows := make([]SweepRow, 0, g.Points())
	for _, ms := range g.Machines {
		tg := newTarget(ms)
		prev, first := "", true
		for _, eb := range bytes {
			pt := tg.eval(a.Plans, pr, dist, n, eb, prev)
			row := SweepRow{Machine: ms, ElemBytes: eb, Point: pt}
			if !first && pt.Collectives != prev {
				row.Switched, row.SwitchedFrom = true, prev
			}
			prev, first = pt.Collectives, false
			rows = append(rows, row)
		}
	}
	return rows
}
