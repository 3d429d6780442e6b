package machine

import (
	"fmt"
	"sync"
)

// CostEval is the mesh contention simulator: the greedy first-fit
// packing of a pattern into conflict-free rounds that Mesh2D.Time
// prices (Time is a thin wrapper over a pooled CostEval). It keeps
// its working state (per-round link-occupancy bitmaps, path scratch)
// allocated across calls, so pricing thousands of candidate schedules
// costs zero steady-state allocations.
//
// It additionally exposes the packing itself (Assign): the partition
// of a pattern into contention rounds depends only on message paths,
// never on payload sizes, which is what lets a compiled template
// precompute a pattern's contention structure once and re-price it
// for any byte size with pure arithmetic (see internal/collective's
// template layer).
//
// A CostEval is bound to one mesh geometry and is not safe for
// concurrent use; give each goroutine its own.
type CostEval struct {
	m *Mesh2D
	// nlinks is the directed-link index space: 2 dims x 2 dirs per
	// node. Indices are ((x*Q+y)*2+dim)*2+dirIdx with dirIdx 0 for
	// dir -1 and 1 for dir +1.
	nlinks  int
	rounds  []costRound
	nrounds int
	path    []int32
}

// evalPool holds the evaluators Mesh2D.Time borrows; bind adapts a
// pooled one to the caller's mesh.
var evalPool = sync.Pool{New: func() any { return new(CostEval) }}

// costRound is one contention round: a flat link-occupancy bitmap
// plus a dirty list for O(links touched) clearing between calls.
type costRound struct {
	used     []bool
	dirty    []int32
	maxBytes int64
	maxHops  int
}

// NewCostEval builds an evaluator for the mesh.
func NewCostEval(m *Mesh2D) *CostEval {
	if m.P < 1 || m.Q < 1 {
		panic(fmt.Sprintf("machine: cost evaluator needs a non-empty mesh, got %dx%d", m.P, m.Q))
	}
	return &CostEval{m: m, nlinks: m.P * m.Q * 4}
}

// bind points the evaluator at m. A geometry change reslices the
// round bitmaps, which reset leaves all-false over their whole
// capacity, and reallocates only those too small for the new mesh.
func (e *CostEval) bind(m *Mesh2D) {
	e.reset()
	e.m = m
	n := m.P * m.Q * 4
	if n == e.nlinks {
		return
	}
	e.nlinks = n
	for i := range e.rounds {
		r := &e.rounds[i]
		if cap(r.used) >= n {
			r.used = r.used[:n]
		} else {
			r.used = make([]bool, n)
		}
	}
}

// Time prices the pattern: one startup plus the largest message's
// transfer time plus the longest path's latency per contention round,
// summed in packing order.
func (e *CostEval) Time(msgs []Message) float64 {
	nr := e.Assign(msgs, nil)
	total := 0.0
	for i := 0; i < nr; i++ {
		r := &e.rounds[i]
		total += e.m.Startup + float64(r.maxBytes)*e.m.PerByte + float64(r.maxHops)*e.m.HopLatency
	}
	return total
}

// Assign packs the pattern into contention rounds exactly as Time
// does and returns the round count. When assign is non-nil (length ≥
// len(msgs)) it receives each message's round index, -1 for local
// (Src == Dst) messages. The packing reads only message endpoints —
// payload sizes never influence placement — so an Assign over a
// schedule's structure is valid for every byte size. Per-round
// aggregates from the packing remain readable via Round until the
// next Time/Assign call.
func (e *CostEval) Assign(msgs []Message, assign []int) int {
	e.reset()
	nr := 0
	for mi := range msgs {
		msg := &msgs[mi]
		if msg.Src == msg.Dst {
			if assign != nil {
				assign[mi] = -1
			}
			continue
		}
		e.walk(msg.Src, msg.Dst)
		placed := -1
		for ri := 0; ri < nr; ri++ {
			r := &e.rounds[ri]
			free := true
			for _, l := range e.path {
				if r.used[l] {
					free = false
					break
				}
			}
			if free {
				r.occupy(e.path)
				if msg.Bytes > r.maxBytes {
					r.maxBytes = msg.Bytes
				}
				if len(e.path) > r.maxHops {
					r.maxHops = len(e.path)
				}
				placed = ri
				break
			}
		}
		if placed < 0 {
			r := e.grow(nr)
			nr++
			r.occupy(e.path)
			r.maxBytes = msg.Bytes
			r.maxHops = len(e.path)
			placed = nr - 1
		}
		if assign != nil {
			assign[mi] = placed
		}
	}
	e.nrounds = nr
	return nr
}

// Round returns the largest message (in bytes) and the longest path
// (in hops) of contention round i of the last Time/Assign call.
func (e *CostEval) Round(i int) (maxBytes int64, maxHops int) {
	return e.rounds[i].maxBytes, e.rounds[i].maxHops
}

// reset clears the previous call's round state, touching only the
// links it actually occupied.
func (e *CostEval) reset() {
	for i := 0; i < e.nrounds; i++ {
		r := &e.rounds[i]
		for _, l := range r.dirty {
			r.used[l] = false
		}
		r.dirty = r.dirty[:0]
		r.maxBytes = 0
		r.maxHops = 0
	}
	e.nrounds = 0
}

// grow returns round i, allocating its bitmap on first use.
func (e *CostEval) grow(i int) *costRound {
	for len(e.rounds) <= i {
		e.rounds = append(e.rounds, costRound{used: make([]bool, e.nlinks)})
	}
	return &e.rounds[i]
}

// occupy marks a path's links used. Paths within a round are disjoint
// by construction (the caller only places on free links) and a single
// XY walk never repeats a link, so dirty entries stay unique.
func (r *costRound) occupy(path []int32) {
	for _, l := range path {
		r.used[l] = true
		r.dirty = append(r.dirty, l)
	}
}

// walk fills e.path with the directed-link indices of the XY route,
// in Mesh2D.walkXY's order.
func (e *CostEval) walk(src, dst int) {
	m := e.m
	e.path = e.path[:0]
	x1, y1 := m.Coords(src)
	x2, y2 := m.Coords(dst)
	for x := x1; x != x2; {
		dir := 1
		if x2 < x {
			dir = -1
		}
		e.path = append(e.path, e.linkIndex(x, y1, 0, dir))
		x += dir
	}
	for y := y1; y != y2; {
		dir := 1
		if y2 < y {
			dir = -1
		}
		e.path = append(e.path, e.linkIndex(x2, y, 1, dir))
		y += dir
	}
}

// linkIndex flattens a directed link to its index in [0, nlinks).
func (e *CostEval) linkIndex(x, y, dim, dir int) int32 {
	dirIdx := 0
	if dir > 0 {
		dirIdx = 1
	}
	return int32(((x*e.m.Q+y)*2+dim)*2 + dirIdx)
}
