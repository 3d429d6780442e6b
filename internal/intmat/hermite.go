package intmat

import "math/big"

// reduction holds the outcome of an integer row reduction of a matrix
// A: H = U·A = Q⁻¹·A is in row Hermite normal form (upper echelon,
// positive pivots, entries above each pivot reduced into [0, pivot)),
// Q and U are mutually inverse unimodular matrices with A = Q·H.
type reduction struct {
	H, Q, U [][]*big.Int
	rank    int
	pivots  []int // pivot column of each of the first rank rows
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

// rowReduce computes the row Hermite normal form of m with full
// transformation bookkeeping.
func rowReduce(m *Mat) reduction {
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
	var pivots []int
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
			pivots = append(pivots, col)
			rank++
		}
	}
	return reduction{H: W, Q: Q, U: U, rank: rank, pivots: pivots}
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
		return matPair{fromBig(red.Q), fromBig(red.H)}
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
		H := fromBig(red.H)
		if !H.IsIdentity() {
			panic("intmat: InverseUnimodular of non-unimodular matrix " + m.String())
		}
		return fromBig(red.U)
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
	H := fromBig(red.H)
	for j := 0; j < d; j++ {
		if H.At(j, j) != 1 {
			return nil, false
		}
	}
	U := fromBig(red.U)
	return U.SubRows(seq(d)...), true
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
