package machine

import (
	"fmt"
	"math/bits"
	"sync"
)

// CostEval is the mesh contention simulator: the greedy first-fit
// packing of a pattern into conflict-free rounds that Mesh2D.Time
// prices (Time is a thin wrapper over a pooled CostEval). It keeps
// its working state (link occupancy, path scratch) allocated across
// calls, so pricing thousands of candidate schedules costs zero
// steady-state allocations.
//
// Occupancy is kept per directed link, 64 rounds to a word: bit i of
// a link's word for block b says the link is busy in round 64·b+i.
// Placing a message ORs the words of its path's links and takes the
// first zero bit, the lowest round where the whole path is free. Only
// the (link, block) pairs a pattern actually occupies hold a word, so
// the state grows with the pattern, not with rounds × links: a
// root-to-all pattern that opens thousands of rounds on a big mesh
// needs a few words per link it crosses.
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
	nlinks int
	// head[l] indexes link l's first occupancy word in words, -1 while
	// the link is free in every round; touched lists the links with a
	// word, for O(links touched) clearing between calls.
	head    []int32
	words   []occWord
	touched []int32
	// blocked is placement scratch: per 64-round block, the rounds the
	// current message's path is busy in.
	blocked []uint64
	rounds  []costRound
	nrounds int
	path    []int32
}

// occWord is one link's occupancy over one block of 64 rounds; a
// link's words form a list through next (-1 ends it), newest block
// first.
type occWord struct {
	bits  uint64
	block int32
	next  int32
}

// evalPool holds the evaluators Mesh2D.Time borrows; bind adapts a
// pooled one to the caller's mesh.
var evalPool = sync.Pool{New: func() any { return new(CostEval) }}

// costRound is one contention round's aggregates.
type costRound struct {
	maxBytes int64
	maxHops  int
}

// NewCostEval builds an evaluator for the mesh.
func NewCostEval(m *Mesh2D) *CostEval {
	if m.P < 1 || m.Q < 1 {
		panic(fmt.Sprintf("machine: cost evaluator needs a non-empty mesh, got %dx%d", m.P, m.Q))
	}
	e := &CostEval{}
	e.bind(m)
	return e
}

// bind points the evaluator at m. A geometry change resizes the
// per-link heads, reallocating only when they are too small.
func (e *CostEval) bind(m *Mesh2D) {
	e.reset()
	e.m = m
	n := m.P * m.Q * 4
	if n == e.nlinks {
		return
	}
	e.nlinks = n
	if cap(e.head) < n {
		e.head = make([]int32, n)
	} else {
		e.head = e.head[:n]
	}
	for i := range e.head {
		e.head[i] = -1
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
	for mi := range msgs {
		ri := e.place(msgs[mi])
		if assign != nil {
			assign[mi] = ri
		}
	}
	return e.nrounds
}

// place packs one more message into the current packing and returns
// its round index, -1 for a local (Src == Dst) message.
func (e *CostEval) place(msg Message) int {
	if msg.Src == msg.Dst {
		return -1
	}
	e.walk(msg.Src, msg.Dst)
	ri := e.firstFree()
	if ri == e.nrounds {
		if ri == len(e.rounds) {
			e.rounds = append(e.rounds, costRound{})
		}
		e.nrounds++
	}
	e.occupy(ri)
	r := &e.rounds[ri]
	if msg.Bytes > r.maxBytes {
		r.maxBytes = msg.Bytes
	}
	if len(e.path) > r.maxHops {
		r.maxHops = len(e.path)
	}
	return ri
}

// Round returns the largest message (in bytes) and the longest path
// (in hops) of contention round i of the last Time/Assign call.
func (e *CostEval) Round(i int) (maxBytes int64, maxHops int) {
	return e.rounds[i].maxBytes, e.rounds[i].maxHops
}

// reset clears the previous call's state, touching only the links it
// actually occupied.
func (e *CostEval) reset() {
	for _, l := range e.touched {
		e.head[l] = -1
	}
	e.touched = e.touched[:0]
	e.words = e.words[:0]
	for i := 0; i < e.nrounds; i++ {
		e.rounds[i] = costRound{}
	}
	e.nrounds = 0
}

// firstFree returns the lowest round in which every link of e.path is
// free: an existing round, or e.nrounds to open a new one.
func (e *CostEval) firstFree() int {
	nb := e.nrounds/64 + 1 // blocks covering rounds 0..nrounds
	if cap(e.blocked) < nb {
		e.blocked = make([]uint64, nb, 2*nb)
	}
	blocked := e.blocked[:nb]
	clear(blocked)
	for _, l := range e.path {
		for w := e.head[l]; w >= 0; w = e.words[w].next {
			blocked[e.words[w].block] |= e.words[w].bits
		}
	}
	// No link is busy in round nrounds, so a zero bit always exists
	// at or below it.
	for b, busy := range blocked {
		if busy != ^uint64(0) {
			return b*64 + bits.TrailingZeros64(^busy)
		}
	}
	panic("machine: no free round")
}

// occupy marks e.path's links busy in round ri. The caller only
// places on free links and a single XY walk never repeats a link, so
// every bit set here was clear.
func (e *CostEval) occupy(ri int) {
	block, bit := int32(ri/64), uint64(1)<<(ri%64)
	for _, l := range e.path {
		w := e.head[l]
		for w >= 0 && e.words[w].block != block {
			w = e.words[w].next
		}
		if w < 0 {
			if e.head[l] < 0 {
				e.touched = append(e.touched, l)
			}
			w = int32(len(e.words))
			e.words = append(e.words, occWord{block: block, next: e.head[l]})
			e.head[l] = w
		}
		e.words[w].bits |= bit
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
