package machine

import (
	"repro/internal/distrib"
	"repro/internal/intmat"
)

// Stream is a message pattern handed over one message at a time:
// calling it passes every message to place, in pattern order. A
// Stream may be called more than once and passes the same messages
// every time. Mesh2D.StreamRounds packs one without building its
// list.
type Stream func(place func(Message))

// ListStream streams a materialized pattern.
func ListStream(msgs []Message) Stream {
	return func(place func(Message)) {
		for _, msg := range msgs {
			place(msg)
		}
	}
}

// AffineStream streams the element-wise pattern of the affine
// communication (i, j) → T·(i, j)ᵗ + off on an n0×n1 virtual grid
// folded onto the mesh by dist: one elemBytes message per virtual
// processor, in row-major (i, j) order. The virtual index space is
// toroidal: destination coordinates are taken modulo the grid
// extents. It is the one enumeration behind AffineComm2D and
// GeneralComm2D.
func AffineStream(m *Mesh2D, dist distrib.Dist2D, t *intmat.Mat, off []int64, n0, n1 int, elemBytes int64) Stream {
	if t.Rows() != 2 || t.Cols() != 2 {
		panic("machine: an affine communication needs a 2x2 data-flow matrix")
	}
	if n0 < 1 || n1 < 1 {
		return func(func(Message)) {}
	}
	var off0, off1 int64
	if len(off) > 0 {
		off0, off1 = off[0], off[1]
	}
	// Dist2D places each dimension on its own, so one table per
	// dimension replaces four Dist1D calls per element.
	xs := make([]int, n0)
	for i := range xs {
		xs[i] = dist.D0.Place(i, n0, m.P)
	}
	ys := make([]int, n1)
	for j := range ys {
		ys[j] = dist.D1.Place(j, n1, m.Q)
	}
	t00, t01, t10, t11 := t.At(0, 0), t.At(0, 1), t.At(1, 0), t.At(1, 1)
	return func(place func(Message)) {
		for i := 0; i < n0; i++ {
			for j := 0; j < n1; j++ {
				di := mod(t00*int64(i)+t01*int64(j)+off0, int64(n0))
				dj := mod(t10*int64(i)+t11*int64(j)+off1, int64(n1))
				place(Message{Src: m.Rank(xs[i], ys[j]), Dst: m.Rank(xs[di], ys[dj]), Bytes: elemBytes})
			}
		}
	}
}

// AffineComm2D builds the *vectorized* message pattern of the affine
// communication AffineStream enumerates: messages between the same
// physical pair are combined into one, in order of first appearance.
//
// Vectorization models an elementary (axis-parallel) communication,
// whose regular stride pattern the runtime can aggregate; use
// GeneralComm2D for the direct execution of a general affine
// communication, which it cannot.
func AffineComm2D(m *Mesh2D, dist distrib.Dist2D, t *intmat.Mat, off []int64, n0, n1 int, elemBytes int64) []Message {
	var msgs []Message
	// The (src, dst) → position index: last[src] is src's newest
	// message position plus one (0: none yet), and prev chains each
	// position to the one before it with the same source.
	last := make([]int32, m.Procs())
	var prev []int32
	AffineStream(m, dist, t, off, n0, n1, elemBytes)(func(msg Message) {
		for k := last[msg.Src]; k > 0; k = prev[k-1] {
			if msgs[k-1].Dst == msg.Dst {
				msgs[k-1].Bytes += msg.Bytes
				return
			}
		}
		prev = append(prev, last[msg.Src])
		msgs = append(msgs, msg)
		last[msg.Src] = int32(len(msgs))
	})
	return msgs
}

// GeneralComm2D builds the direct, element-wise execution of a
// general affine communication: one message per virtual processor,
// with no pairwise aggregation. This is how a 1990s runtime executes
// an irregular pattern it cannot derive a closed-form schedule for —
// the paper's motivation for decomposing general communications
// ("better have several simple communications than a complicated
// one", Section 5.1).
func GeneralComm2D(m *Mesh2D, dist distrib.Dist2D, t *intmat.Mat, off []int64, n0, n1 int, elemBytes int64) []Message {
	msgs := make([]Message, 0, max(n0, 0)*max(n1, 0))
	AffineStream(m, dist, t, off, n0, n1, elemBytes)(func(msg Message) {
		msgs = append(msgs, msg)
	})
	return msgs
}

// ElementaryRowComm builds the pattern of the elementary
// communication U(k): (i, j) → (i + k·j, j): data moves only along
// dimension 0, within the k residue classes of i mod k.
func ElementaryRowComm(m *Mesh2D, dist distrib.Dist2D, k int64, n0, n1 int, elemBytes int64) []Message {
	u := intmat.New(2, 2, 1, k, 0, 1)
	return AffineComm2D(m, dist, u, nil, n0, n1, elemBytes)
}

// ElementaryColComm builds the pattern of L(l): (i, j) → (i, j + l·i).
func ElementaryColComm(m *Mesh2D, dist distrib.Dist2D, l int64, n0, n1 int, elemBytes int64) []Message {
	lm := intmat.New(2, 2, 1, 0, l, 1)
	return AffineComm2D(m, dist, lm, nil, n0, n1, elemBytes)
}

// DecomposedTime executes a factorized communication as successive
// phases (the paper: "communication L and U are performed one after
// the other, not in parallel") and returns the summed phase times.
// Factors are applied right to left, as in the matrix product; the
// intermediate virtual positions follow the partial products.
func DecomposedTime(m *Mesh2D, dist distrib.Dist2D, factors []*intmat.Mat, n0, n1 int, elemBytes int64) float64 {
	total := 0.0
	for idx := len(factors) - 1; idx >= 0; idx-- {
		msgs := AffineComm2D(m, dist, factors[idx], nil, n0, n1, elemBytes)
		total += m.Time(msgs)
	}
	return total
}

func mod(a, n int64) int64 {
	r := a % n
	if r < 0 {
		r += n
	}
	return r
}
