package intmat

import (
	"math"
	"math/big"
)

// KernelBasis returns a matrix whose columns form a basis of the
// integer kernel lattice {v ∈ Zⁿ : m·v = 0}. The result has n rows
// and (n − rank m) columns; it has zero columns count when the kernel
// is trivial (then Cols() == 0).
//
// The basis is obtained from the column Hermite reduction m·V = [B 0]:
// the trailing columns of the unimodular V span the kernel.
func (k *Kernels) KernelBasis(m *Mat) *Mat {
	return memo(k, "ker", m, kernelBasis)
}

// kernelBasis computes KernelBasis in int64, or in math/big when an
// entry overflows.
func kernelBasis(m *Mat) *Mat {
	if ker, ok := kernelBasisWord(m); ok {
		return ker
	}
	return kernelBasisBig(m)
}

// kernelBasisWord is kernelBasisBig in int64, step for step: the same
// pivot choice and truncated quotients. ok is false when an entry
// leaves int64.
func kernelBasisWord(m *Mat) (*Mat, bool) {
	rows, cols := m.rows, m.cols
	var wbuf, vbuf [wordScratch]int64
	w := scratch(wbuf[:], len(m.a))
	copy(w, m.a)
	v := scratch(vbuf[:], cols*cols)
	for i := 0; i < cols; i++ {
		v[i*cols+i] = 1
	}
	swapCol := func(i, j int) {
		if i == j {
			return
		}
		for r := 0; r < rows; r++ {
			w[r*cols+i], w[r*cols+j] = w[r*cols+j], w[r*cols+i]
		}
		for r := 0; r < cols; r++ {
			v[r*cols+i], v[r*cols+j] = v[r*cols+j], v[r*cols+i]
		}
	}
	// col j += k·col i
	addCol := func(j, i int, k int64) bool {
		var ok bool
		for r := 0; r < rows; r++ {
			if w[r*cols+j], ok = mulAdd(w[r*cols+j], k, w[r*cols+i]); !ok {
				return false
			}
		}
		for r := 0; r < cols; r++ {
			if v[r*cols+j], ok = mulAdd(v[r*cols+j], k, v[r*cols+i]); !ok {
				return false
			}
		}
		return true
	}

	lead := 0
	for row := 0; row < rows && lead < cols; row++ {
		wr := w[row*cols : (row+1)*cols]
		for {
			best := -1
			for c := lead; c < cols; c++ {
				if wr[c] != 0 && (best < 0 || absU(wr[c]) < absU(wr[best])) {
					best = c
				}
			}
			if best < 0 {
				break
			}
			swapCol(lead, best)
			p := wr[lead]
			done := true
			for c := lead + 1; c < cols; c++ {
				x := wr[c]
				if x == 0 {
					continue
				}
				// |p| ≤ |x|: only MinInt64/±1 overflows here.
				if x == math.MinInt64 && (p == 1 || p == -1) {
					return nil, false
				}
				if !addCol(c, lead, -(x / p)) {
					return nil, false
				}
				if wr[c] != 0 {
					done = false
				}
			}
			if done {
				break
			}
		}
		if lead < cols && wr[lead] != 0 {
			lead++
		}
	}
	// columns lead..cols-1 of V span the kernel
	ker := Zero(cols, cols-lead)
	for i := 0; i < cols; i++ {
		copy(ker.a[i*ker.cols:(i+1)*ker.cols], v[i*cols+lead:(i+1)*cols])
	}
	return ker, true
}

// kernelBasisBig is kernelBasis over math/big: the overflow fallback
// and the test oracle of kernelBasisWord.
func kernelBasisBig(m *Mat) *Mat {
	rows, cols := m.rows, m.cols
	W := m.toBig()
	V := bigIdentity(cols)

	swapCol := func(i, j int) {
		if i == j {
			return
		}
		for r := 0; r < rows; r++ {
			W[r][i], W[r][j] = W[r][j], W[r][i]
		}
		for r := 0; r < cols; r++ {
			V[r][i], V[r][j] = V[r][j], V[r][i]
		}
	}
	// col j += k * col i
	addCol := func(j, i int, k *big.Int) {
		if k.Sign() == 0 {
			return
		}
		t := new(big.Int)
		for r := 0; r < rows; r++ {
			W[r][j] = new(big.Int).Add(W[r][j], t.Mul(k, W[r][i]))
			t = new(big.Int)
		}
		for r := 0; r < cols; r++ {
			V[r][j] = new(big.Int).Add(V[r][j], t.Mul(k, V[r][i]))
			t = new(big.Int)
		}
	}

	lead := 0
	for row := 0; row < rows && lead < cols; row++ {
		for {
			best := -1
			for c := lead; c < cols; c++ {
				if W[row][c].Sign() == 0 {
					continue
				}
				if best < 0 || W[row][c].CmpAbs(W[row][best]) < 0 {
					best = c
				}
			}
			if best < 0 {
				break
			}
			swapCol(lead, best)
			done := true
			q := new(big.Int)
			rm := new(big.Int)
			for c := lead + 1; c < cols; c++ {
				if W[row][c].Sign() == 0 {
					continue
				}
				q.QuoRem(W[row][c], W[row][lead], rm)
				addCol(c, lead, new(big.Int).Neg(q))
				if W[row][c].Sign() != 0 {
					done = false
				}
			}
			if done {
				break
			}
		}
		if lead < cols && W[row][lead].Sign() != 0 {
			lead++
		}
	}
	// columns lead..cols-1 of V span the kernel
	ker := Zero(cols, cols-lead)
	for j := lead; j < cols; j++ {
		for i := 0; i < cols; i++ {
			v := V[i][j]
			if !v.IsInt64() {
				panic("intmat: kernel basis entry overflows int64")
			}
			ker.Set(i, j-lead, v.Int64())
		}
	}
	return ker
}

// LeftKernelBasis returns a matrix whose rows form a basis of
// {y : y·m = 0}.
func (k *Kernels) LeftKernelBasis(m *Mat) *Mat {
	return k.KernelBasis(m.Transpose()).Transpose()
}

// KernelIntersection returns a basis (as columns) of the intersection
// of the kernels of the given matrices, i.e. the kernel of their
// vertical stack. All matrices must have the same column count.
// Matrices with zero rows are treated as "no constraint".
func (k *Kernels) KernelIntersection(ms ...*Mat) *Mat {
	var stacked *Mat
	for _, m := range ms {
		if m == nil || m.rows == 0 {
			continue
		}
		if stacked == nil {
			stacked = m
		} else {
			stacked = Stack(stacked, m)
		}
	}
	if stacked == nil {
		panic("intmat: KernelIntersection needs at least one non-empty matrix")
	}
	return k.KernelBasis(stacked)
}

// KernelBasis is Kernels.KernelBasis with no memo and no accounting.
func KernelBasis(m *Mat) *Mat { return (*Kernels)(nil).KernelBasis(m) }

// LeftKernelBasis is Kernels.LeftKernelBasis with no memo and no
// accounting.
func LeftKernelBasis(m *Mat) *Mat { return (*Kernels)(nil).LeftKernelBasis(m) }

// KernelIntersection is Kernels.KernelIntersection with no memo and no
// accounting.
func KernelIntersection(ms ...*Mat) *Mat { return (*Kernels)(nil).KernelIntersection(ms...) }

// InKernel reports whether m·v = 0.
func InKernel(m *Mat, v []int64) bool {
	for _, x := range MulVec(m, v) {
		if x != 0 {
			return false
		}
	}
	return true
}
