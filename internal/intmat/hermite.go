package intmat

import (
	"math"
	"math/big"
)

// reduction holds the outcome of an integer row reduction of a matrix
// A: H = U·A = Q⁻¹·A is in row Hermite normal form (upper echelon,
// positive pivots, entries above each pivot reduced into [0, pivot)),
// Q and U are mutually inverse unimodular matrices with A = Q·H. The
// word path fills h, q and u; after an overflow, big holds the math/big
// result, and H, Q and U convert each matrix only when it is asked for,
// panicking then if that matrix does not fit int64.
type reduction struct {
	rank    int
	h, q, u *Mat
	big     *bigReduction
}

func (r *reduction) H() *Mat {
	if r.big != nil {
		return fromBig(r.big.H, r.big.rows, r.big.cols)
	}
	return r.h
}

func (r *reduction) Q() *Mat {
	if r.big != nil {
		return fromBig(r.big.Q, r.big.rows, r.big.rows)
	}
	return r.q
}

func (r *reduction) U() *Mat {
	if r.big != nil {
		return fromBig(r.big.U, r.big.rows, r.big.rows)
	}
	return r.u
}

// rowReduce computes the row Hermite normal form of m with full
// transformation bookkeeping: in int64, or in math/big when an entry
// overflows.
func rowReduce(m *Mat) reduction {
	if red, ok := rowReduceWord(m); ok {
		return red
	}
	b := rowReduceBig(m)
	return reduction{rank: b.rank, big: &b}
}

// rowReduceWord is rowReduceBig in int64, step for step: the same
// pivot choice, truncated quotients below the pivot and floor
// quotients (the pivot is positive) above it. ok is false when an
// entry leaves int64.
func rowReduceWord(m *Mat) (red reduction, ok bool) {
	rows, cols := m.rows, m.cols
	wn, qn := rows*cols, rows*rows
	buf := make([]int64, wn+2*qn)
	w, q, u := buf[:wn:wn], buf[wn:wn+qn:wn+qn], buf[wn+qn:]
	copy(w, m.a)
	for i := 0; i < rows; i++ {
		q[i*rows+i], u[i*rows+i] = 1, 1
	}
	swap := func(i, j int) {
		if i == j {
			return
		}
		for c := 0; c < cols; c++ {
			w[i*cols+c], w[j*cols+c] = w[j*cols+c], w[i*cols+c]
		}
		for c := 0; c < rows; c++ {
			u[i*rows+c], u[j*rows+c] = u[j*rows+c], u[i*rows+c]
			q[c*rows+i], q[c*rows+j] = q[c*rows+j], q[c*rows+i]
		}
	}
	// addRow: row j += k·row i (on W and U); Q col i −= k·col j. The
	// callers never pass k = MinInt64, so −k is exact.
	addRow := func(j, i int, k int64) bool {
		var ok bool
		for c := 0; c < cols; c++ {
			if w[j*cols+c], ok = mulAdd(w[j*cols+c], k, w[i*cols+c]); !ok {
				return false
			}
		}
		for c := 0; c < rows; c++ {
			if u[j*rows+c], ok = mulAdd(u[j*rows+c], k, u[i*rows+c]); !ok {
				return false
			}
			if q[c*rows+i], ok = mulAdd(q[c*rows+i], -k, q[c*rows+j]); !ok {
				return false
			}
		}
		return true
	}
	negRow := func(i int) bool {
		for c := 0; c < cols; c++ {
			if w[i*cols+c] == math.MinInt64 {
				return false
			}
			w[i*cols+c] = -w[i*cols+c]
		}
		for c := 0; c < rows; c++ {
			if u[i*rows+c] == math.MinInt64 || q[c*rows+i] == math.MinInt64 {
				return false
			}
			u[i*rows+c], q[c*rows+i] = -u[i*rows+c], -q[c*rows+i]
		}
		return true
	}

	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		// Euclidean elimination in column col among rows rank..rows-1.
		for {
			// pick the nonzero entry of smallest absolute value
			best := -1
			for r := rank; r < rows; r++ {
				v := w[r*cols+col]
				if v != 0 && (best < 0 || absU(v) < absU(w[best*cols+col])) {
					best = r
				}
			}
			if best < 0 {
				break // column is zero below rank
			}
			swap(rank, best)
			p := w[rank*cols+col]
			done := true
			for r := rank + 1; r < rows; r++ {
				v := w[r*cols+col]
				if v == 0 {
					continue
				}
				// |p| ≤ |v|, so v/p overflows only as MinInt64/−1,
				// and its negation only when it is MinInt64.
				if v == math.MinInt64 && (p == 1 || p == -1) {
					return reduction{}, false
				}
				if !addRow(r, rank, -(v / p)) {
					return reduction{}, false
				}
				if w[r*cols+col] != 0 {
					done = false
				}
			}
			if done {
				break
			}
		}
		if p := w[rank*cols+col]; p != 0 {
			if p < 0 && !negRow(rank) {
				return reduction{}, false
			}
			p = w[rank*cols+col]
			// reduce entries above the pivot into [0, pivot)
			for r := 0; r < rank; r++ {
				v := w[r*cols+col]
				if v == 0 {
					continue
				}
				fq := v / p
				if v%p < 0 {
					fq--
				}
				if fq == math.MinInt64 || !addRow(r, rank, -fq) {
					return reduction{}, false
				}
			}
			rank++
		}
	}
	return reduction{
		rank: rank,
		h:    &Mat{rows: rows, cols: cols, a: w},
		q:    &Mat{rows: rows, cols: rows, a: q},
		u:    &Mat{rows: rows, cols: rows, a: u},
	}, true
}

// bigReduction is a reduction in math/big.
type bigReduction struct {
	H, Q, U    [][]*big.Int
	rank       int
	rows, cols int
}

func bigIdentity(n int) [][]*big.Int {
	id := make([][]*big.Int, n)
	for i := range id {
		id[i] = make([]*big.Int, n)
		for j := range id[i] {
			if i == j {
				id[i][j] = big.NewInt(1)
			} else {
				id[i][j] = big.NewInt(0)
			}
		}
	}
	return id
}

// rowReduceBig is rowReduce over math/big: the overflow fallback and
// the test oracle of rowReduceWord.
func rowReduceBig(m *Mat) bigReduction {
	rows, cols := m.rows, m.cols
	W := m.toBig()
	Q := bigIdentity(rows)
	U := bigIdentity(rows)

	swap := func(i, j int) {
		if i == j {
			return
		}
		W[i], W[j] = W[j], W[i]
		U[i], U[j] = U[j], U[i]
		for r := 0; r < rows; r++ {
			Q[r][i], Q[r][j] = Q[r][j], Q[r][i]
		}
	}
	// addRow: row j += k * row i  (on W and U); Q col i -= k * col j.
	addRow := func(j, i int, k *big.Int) {
		if k.Sign() == 0 {
			return
		}
		t := new(big.Int)
		for c := 0; c < cols; c++ {
			W[j][c] = new(big.Int).Add(W[j][c], t.Mul(k, W[i][c]))
			t = new(big.Int)
		}
		for c := 0; c < rows; c++ {
			U[j][c] = new(big.Int).Add(U[j][c], t.Mul(k, U[i][c]))
			t = new(big.Int)
		}
		for r := 0; r < rows; r++ {
			Q[r][i] = new(big.Int).Sub(Q[r][i], t.Mul(k, Q[r][j]))
			t = new(big.Int)
		}
	}
	negRow := func(i int) {
		for c := 0; c < cols; c++ {
			W[i][c] = new(big.Int).Neg(W[i][c])
		}
		for c := 0; c < rows; c++ {
			U[i][c] = new(big.Int).Neg(U[i][c])
		}
		for r := 0; r < rows; r++ {
			Q[r][i] = new(big.Int).Neg(Q[r][i])
		}
	}

	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		// Euclidean elimination in column col among rows rank..rows-1.
		for {
			// pick the nonzero entry of smallest absolute value
			best := -1
			for r := rank; r < rows; r++ {
				if W[r][col].Sign() == 0 {
					continue
				}
				if best < 0 || W[r][col].CmpAbs(W[best][col]) < 0 {
					best = r
				}
			}
			if best < 0 {
				break // column is zero below rank
			}
			swap(rank, best)
			done := true
			q := new(big.Int)
			rm := new(big.Int)
			for r := rank + 1; r < rows; r++ {
				if W[r][col].Sign() == 0 {
					continue
				}
				q.QuoRem(W[r][col], W[rank][col], rm)
				addRow(r, rank, new(big.Int).Neg(q))
				if W[r][col].Sign() != 0 {
					done = false
				}
			}
			if done {
				break
			}
		}
		if rank < rows && W[rank][col].Sign() != 0 {
			if W[rank][col].Sign() < 0 {
				negRow(rank)
			}
			// reduce entries above the pivot into [0, pivot)
			q := new(big.Int)
			rm := new(big.Int)
			for r := 0; r < rank; r++ {
				if W[r][col].Sign() == 0 {
					continue
				}
				q.DivMod(W[r][col], W[rank][col], rm)
				addRow(r, rank, new(big.Int).Neg(q))
			}
			rank++
		}
	}
	return bigReduction{H: W, Q: Q, U: U, rank: rank, rows: rows, cols: cols}
}

// HermiteLeft returns unimodular Q and the row Hermite normal form H
// of m such that m = Q·H. H is in upper echelon form with positive
// pivots; when m has full column rank d, H = [H₁; 0] with H₁ d×d
// upper triangular — the rectangular Hermite decomposition of the
// paper's appendix (Definition 1, stated there with the lower/upper
// convention mirrored).
func (k *Kernels) HermiteLeft(m *Mat) (Q, H *Mat) {
	p := memo(k, "hnfL", m, func(m *Mat) matPair {
		red := rowReduce(m)
		return matPair{red.Q(), red.H()}
	})
	return p.a, p.b
}

// HermiteRight returns the column Hermite normal form H and a
// unimodular Q such that m = H·Q. When m has full row rank, H is a
// column echelon (lower triangular) matrix padded with zero columns.
func (k *Kernels) HermiteRight(m *Mat) (H, Q *Mat) {
	qt, ht := k.HermiteLeft(m.Transpose())
	return ht.Transpose(), qt.Transpose()
}

// InverseUnimodular returns the exact integer inverse of a unimodular
// matrix, panicking if m is not unimodular.
func (k *Kernels) InverseUnimodular(m *Mat) *Mat {
	if !m.IsSquare() {
		panic("intmat: InverseUnimodular of non-square matrix")
	}
	return memo(k, "inv", m, func(m *Mat) *Mat {
		red := rowReduce(m)
		if !red.H().IsIdentity() {
			panic("intmat: InverseUnimodular of non-unimodular matrix " + m.String())
		}
		return red.U()
	})
}

// HermiteLeft is Kernels.HermiteLeft with no memo and no accounting.
func HermiteLeft(m *Mat) (Q, H *Mat) { return (*Kernels)(nil).HermiteLeft(m) }

// HermiteRight is Kernels.HermiteRight with no memo and no accounting.
func HermiteRight(m *Mat) (H, Q *Mat) { return (*Kernels)(nil).HermiteRight(m) }

// InverseUnimodular is Kernels.InverseUnimodular with no memo and no
// accounting.
func InverseUnimodular(m *Mat) *Mat { return (*Kernels)(nil).InverseUnimodular(m) }

// LeftInverseInt returns an integer matrix G with G·F = Id (F of size
// q×d, full column rank d ≤ q) when one exists over the integers, i.e.
// when the Hermite form of F is [Id; 0]. The second result reports
// success. G is the generalized left inverse used as an access-graph
// edge weight in the paper (Remark, Section 2.2.2): any G with
// G·F = Id is admissible, not only the rational pseudo-inverse.
func LeftInverseInt(f *Mat) (*Mat, bool) {
	d := f.cols
	if f.rows < d {
		return nil, false
	}
	red := rowReduce(f)
	if red.rank != d {
		return nil, false
	}
	H := red.H()
	for j := 0; j < d; j++ {
		if H.At(j, j) != 1 {
			return nil, false
		}
	}
	return red.U().SubRows(seq(d)...), true
}

// RightInverseInt returns an integer G with F·G = Id for a flat
// full-row-rank F, when one exists over the integers.
func RightInverseInt(f *Mat) (*Mat, bool) {
	g, ok := LeftInverseInt(f.Transpose())
	if !ok {
		return nil, false
	}
	return g.Transpose(), true
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
