// Package machine provides deterministic analytic cost models of the
// two distributed-memory machines the paper evaluates on:
//
//   - Mesh2D, an Intel-Paragon-like 2-D mesh with dimension-ordered
//     (XY) routing where simultaneous messages sharing a link
//     serialize — the conflict behaviour Section 1 describes;
//   - FatTree, a CM-5-like machine whose control network implements
//     reductions and broadcasts in hardware while general
//     communications pay per-message software overhead and data-
//     network congestion (Table 1).
//
// The models are intentionally simple and fully deterministic so that
// experiments are reproducible and testable: a communication pattern
// is a multiset of point-to-point messages, and its time combines
// per-sender serialization, per-link serialization and path latency.
// Times are in model microseconds; only ratios are meaningful.
package machine

import "fmt"

// Message is one aggregated point-to-point transfer between physical
// processors (ranks in row-major order for meshes).
type Message struct {
	Src, Dst int
	Bytes    int64
}

// Mesh2D models a P×Q store-and-forward mesh with XY routing.
type Mesh2D struct {
	P, Q int // grid extents; rank = x*Q + y

	// Startup is the per-message software overhead at the sender (µs).
	Startup float64
	// PerByte is the per-byte transfer/occupancy time of one link (µs).
	PerByte float64
	// HopLatency is the per-hop header latency (µs).
	HopLatency float64
}

// DefaultMesh returns a mesh with Paragon-flavoured constants: large
// per-message software overhead relative to per-byte cost, which is
// what makes fragmenting a communication into many small messages
// expensive.
func DefaultMesh(p, q int) *Mesh2D {
	return &Mesh2D{P: p, Q: q, Startup: 100, PerByte: 0.01, HopLatency: 0.5}
}

// Procs returns the processor count.
func (m *Mesh2D) Procs() int { return m.P * m.Q }

// Coords converts a rank to (x, y).
func (m *Mesh2D) Coords(rank int) (int, int) {
	if rank < 0 || rank >= m.Procs() {
		panic(fmt.Sprintf("machine: rank %d out of range %d", rank, m.Procs()))
	}
	return rank / m.Q, rank % m.Q
}

// Rank converts (x, y) to a rank.
func (m *Mesh2D) Rank(x, y int) int {
	if x < 0 || x >= m.P || y < 0 || y >= m.Q {
		panic(fmt.Sprintf("machine: coords (%d,%d) out of %dx%d", x, y, m.P, m.Q))
	}
	return x*m.Q + y
}

// linkID identifies a directed mesh link.
type linkID struct {
	x, y int
	dim  int // 0: step in x, 1: step in y
	dir  int // +1 / -1
}

// Time returns the model execution time of the pattern in µs under a
// first-order wormhole-contention model: a message occupies every
// link of its XY path for its whole duration, so two messages
// conflict — and serialize — when their paths share any directed
// link. This is exactly the Paragon behaviour the paper describes
// ("communication conflicts are generated by serial messages on a
// single link at the same time"), and it is what makes a general
// affine pattern with long crossing paths slower than a sequence of
// axis-parallel phases.
//
// Messages are greedily packed into conflict-free rounds (in
// deterministic order); each round costs one startup plus the
// transfer time of its largest message plus its longest path latency.
// Messages with Src == Dst are local and cost nothing. The packing is
// CostEval's; Time borrows a pooled evaluator, so a warm call
// allocates nothing.
func (m *Mesh2D) Time(msgs []Message) float64 {
	e := evalPool.Get().(*CostEval)
	e.bind(m)
	t := e.Time(msgs)
	evalPool.Put(e)
	return t
}

// StreamRounds packs a streamed pattern exactly as Time packs the
// list it streams, and calls visit with each contention round's
// largest message (bytes) and longest path (hops), in packing order.
// Each message is packed as it arrives and none is kept, so a pattern
// can be priced as it is enumerated.
func (m *Mesh2D) StreamRounds(s Stream, visit func(maxBytes int64, maxHops int)) {
	e := evalPool.Get().(*CostEval)
	e.bind(m)
	s(func(msg Message) { e.place(msg) })
	for i := 0; i < e.nrounds; i++ {
		visit(e.Round(i))
	}
	evalPool.Put(e)
}

// walkXY enumerates the links of the XY route from src to dst.
func (m *Mesh2D) walkXY(src, dst int, visit func(linkID)) {
	x1, y1 := m.Coords(src)
	x2, y2 := m.Coords(dst)
	for x := x1; x != x2; {
		dir := 1
		if x2 < x {
			dir = -1
		}
		visit(linkID{x: x, y: y1, dim: 0, dir: dir})
		x += dir
	}
	for y := y1; y != y2; {
		dir := 1
		if y2 < y {
			dir = -1
		}
		visit(linkID{x: x2, y: y, dim: 1, dir: dir})
		y += dir
	}
}

// Stats summarizes a pattern for reports.
type Stats struct {
	Messages     int
	TotalBytes   int64
	MaxDegree    int // max distinct destinations per sender
	MaxLinkBytes int64
	MaxHops      int
}

// PatternStats computes summary statistics of a pattern.
func (m *Mesh2D) PatternStats(msgs []Message) Stats {
	st := Stats{}
	deg := map[int]map[int]bool{}
	links := map[linkID]int64{}
	for _, msg := range msgs {
		if msg.Src == msg.Dst {
			continue
		}
		st.Messages++
		st.TotalBytes += msg.Bytes
		if deg[msg.Src] == nil {
			deg[msg.Src] = map[int]bool{}
		}
		deg[msg.Src][msg.Dst] = true
		hops := 0
		m.walkXY(msg.Src, msg.Dst, func(l linkID) {
			links[l] += msg.Bytes
			hops++
		})
		if hops > st.MaxHops {
			st.MaxHops = hops
		}
	}
	for _, d := range deg {
		if len(d) > st.MaxDegree {
			st.MaxDegree = len(d)
		}
	}
	for _, b := range links {
		if b > st.MaxLinkBytes {
			st.MaxLinkBytes = b
		}
	}
	return st
}
