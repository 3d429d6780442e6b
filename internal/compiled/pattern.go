package compiled

import (
	"sync"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/intmat"
	"repro/internal/machine"
)

var (
	// standInGeneral is the deterministic pattern used when a general
	// plan has no usable 2×2 data-flow matrix.
	standInGeneral = intmat.New(2, 2, 0, 1, 1, 0)
	// unitShift is the phase a pure translation runs per factor.
	unitShift, unitShiftOff = intmat.Identity(2), []int64{1, 1}
)

func is2x2(m *intmat.Mat) bool { return m != nil && m.Rows() == 2 && m.Cols() == 2 }

// patternKey identifies one pattern template: everything that places
// the pattern's messages on the mesh, nothing of the payload or the
// link-cost calibration. The distribution is keyed by value, so its
// Dist1D schemes must be comparable (every scheme in package distrib
// is).
type patternKey struct {
	// permute marks a decomposed phase: the aggregated pattern
	// compiled under every permute algorithm. Otherwise the key is a
	// general communication's direct element-wise pattern.
	permute bool
	p, q    int
	dist    distrib.Dist2D
	t       [4]int64
	off     [2]int64
	n       int
}

type patternSlot struct {
	once sync.Once
	t    *collective.PatternTemplate
}

// pattern returns the compiled template for the key, compiling at
// most once concurrently.
func (pr *Pricer) pattern(m *machine.Mesh2D, k patternKey, t *intmat.Mat, off []int64) *collective.PatternTemplate {
	pr.mu.Lock()
	slot, ok := pr.pat[k]
	if !ok {
		slot = &patternSlot{}
		pr.pat[k] = slot
	}
	pr.mu.Unlock()
	if ok {
		pr.hits.Add(1)
	} else {
		pr.misses.Add(1)
	}
	slot.once.Do(func() {
		hm := heapMesh(m)
		if k.permute {
			slot.t = collective.CompilePattern(hm, machine.ListStream(machine.AffineComm2D(hm, k.dist, t, off, k.n, k.n, 1)), false)
		} else {
			// Streamed straight into the packer: the N² element
			// messages are never built.
			slot.t = collective.CompilePattern(hm, machine.AffineStream(hm, k.dist, t, nil, k.n, k.n, 1), true)
		}
	})
	pr.evals.Add(1)
	return slot.t
}

func newPatternKey(permute bool, m *machine.Mesh2D, dist distrib.Dist2D, t *intmat.Mat, off []int64, n int) patternKey {
	k := patternKey{permute: permute, p: m.P, q: m.Q, dist: dist, n: n,
		t: [4]int64{t.At(0, 0), t.At(0, 1), t.At(1, 0), t.At(1, 1)}}
	copy(k.off[:], off)
	return k
}

// GeneralTime is m.Time(machine.GeneralComm2D(m, dist, t, nil, n, n,
// eb)) through the template cache: the direct execution of a general
// communication.
func (pr *Pricer) GeneralTime(m *machine.Mesh2D, dist distrib.Dist2D, t *intmat.Mat, n int, eb int64) float64 {
	if pr == nil || eb < 0 || !is2x2(t) {
		hm := heapMesh(m)
		return hm.Time(machine.GeneralComm2D(hm, dist, t, nil, n, n, eb))
	}
	return pr.pattern(m, newPatternKey(false, m, dist, t, nil, n), t, nil).Time(m, eb)
}

// SelectPermute is collective.SelectPermute(m,
// machine.AffineComm2D(m, dist, t, off, n, n, eb), force) through the
// template cache: the cheapest permute execution of one decomposed
// phase.
func (pr *Pricer) SelectPermute(m *machine.Mesh2D, dist distrib.Dist2D, t *intmat.Mat, off []int64, n int, eb int64, force string) collective.Choice {
	if pr == nil || eb < 0 || !is2x2(t) {
		hm := heapMesh(m)
		return collective.SelectPermute(hm, machine.AffineComm2D(hm, dist, t, off, n, n, eb), force)
	}
	return pr.pattern(m, newPatternKey(true, m, dist, t, off, n), t, off).SelectPermute(m, eb, force)
}

// patternTime prices a decomposed or general plan on the mesh with an
// n×n virtual grid under dist, eb bytes per element, and counts the
// permute algorithms it selects into cc.
//
// A decomposed plan whose factors are 2×2 runs its phases one after
// the other, right to left as in the matrix product, each phase's
// aggregated pattern under the cheapest permute algorithm. A pure
// translation (T = Id), or factors outside the 2-D simulator, runs k
// unit-shift phases. A general plan executes its data-flow matrix
// directly, element by element — the transpose [[0,1],[1,0]] stands
// in when the matrix is unknown or not 2×2.
func (pr *Pricer) patternTime(m *machine.Mesh2D, dist distrib.Dist2D, pl *PlanShape, n int, eb int64, force string, cc *choiceCounts) float64 {
	if pl.Class != core.Decomposed {
		t := pl.Dataflow
		if !is2x2(t) {
			t = standInGeneral
		}
		return pr.GeneralTime(m, dist, t, n, eb)
	}
	if len(pl.Factors) > 0 && is2x2(pl.Factors[0]) {
		total := 0.0
		for idx := len(pl.Factors) - 1; idx >= 0; idx-- {
			ch := pr.SelectPermute(m, dist, pl.Factors[idx], nil, n, eb, force)
			total += ch.Cost
			cc.add(ch, 1)
		}
		return total
	}
	k := max(len(pl.Factors), 1)
	ch := pr.SelectPermute(m, dist, unitShift, unitShiftOff, n, eb, force)
	cc.add(ch, k)
	return float64(k) * ch.Cost
}
