package ratmat

import (
	"math/big"
)

// The math/big.Rat twins of the word routines: the fallback for values
// that leave int64, and the oracle the word routines are tested
// against. They share no code with the word routines.

// scaledRats clears the denominators of rats: it returns the integer
// numerators over l, the lcm of all entry denominators. overflow is
// the reason, when a numerator or l leaves int64.
func scaledRats(rats []*big.Rat) (num []int64, l int64, overflow string) {
	lb := big.NewInt(1)
	g := new(big.Int)
	for _, v := range rats {
		d := v.Denom()
		g.GCD(nil, nil, lb, d)
		lb.Div(lb, g)
		lb.Mul(lb, d)
	}
	num = make([]int64, len(rats))
	t := new(big.Int)
	for i, v := range rats {
		t.Div(lb, v.Denom())
		t.Mul(t, v.Num())
		if !t.IsInt64() {
			return nil, 0, "ratmat: ScaledInt overflows int64"
		}
		num[i] = t.Int64()
	}
	if !lb.IsInt64() {
		return nil, 0, "ratmat: ScaledInt denominator lcm overflows int64"
	}
	return num, lb.Int64(), ""
}

// addRats returns a + b, or a − b when sub is set.
func addRats(a, b []*big.Rat, sub bool) []*big.Rat {
	r := make([]*big.Rat, len(a))
	for i := range r {
		if sub {
			r[i] = new(big.Rat).Sub(a[i], b[i])
		} else {
			r[i] = new(big.Rat).Add(a[i], b[i])
		}
	}
	return r
}

// mulRats returns the rows×cols product of the rows×inner matrix a and
// the inner×cols matrix b.
func mulRats(rows, inner, cols int, a, b []*big.Rat) []*big.Rat {
	r := make([]*big.Rat, rows*cols)
	t := new(big.Rat)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			acc := new(big.Rat)
			for k := 0; k < inner; k++ {
				t.Mul(a[i*inner+k], b[k*cols+j])
				acc.Add(acc, t)
			}
			r[i*cols+j] = acc
		}
	}
	return r
}

// rankRats returns the rank of the rows×cols matrix w by exact Gaussian
// elimination over Q, overwriting w.
func rankRats(rows, cols int, w []*big.Rat) int {
	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		piv := -1
		for r := rank; r < rows; r++ {
			if w[r*cols+col].Sign() != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			continue
		}
		for c := 0; c < cols; c++ {
			w[rank*cols+c], w[piv*cols+c] = w[piv*cols+c], w[rank*cols+c]
		}
		p := w[rank*cols+col]
		t := new(big.Rat)
		for r := rank + 1; r < rows; r++ {
			f := new(big.Rat).Quo(w[r*cols+col], p)
			if f.Sign() == 0 {
				continue
			}
			for c := col; c < cols; c++ {
				t.Mul(f, w[rank*cols+c])
				w[r*cols+c] = new(big.Rat).Sub(w[r*cols+c], t)
			}
		}
		rank++
	}
	return rank
}

// inverseRats returns the inverse of the n×n matrix w by Gauss–Jordan
// elimination over Q, overwriting w; ok is false when w is singular.
func inverseRats(n int, w []*big.Rat) (inv []*big.Rat, ok bool) {
	inv = make([]*big.Rat, n*n)
	for i := range inv {
		inv[i] = new(big.Rat)
		if i%(n+1) == 0 {
			inv[i].SetInt64(1)
		}
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if w[r*n+col].Sign() != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, false
		}
		for c := 0; c < n; c++ {
			w[col*n+c], w[piv*n+c] = w[piv*n+c], w[col*n+c]
			inv[col*n+c], inv[piv*n+c] = inv[piv*n+c], inv[col*n+c]
		}
		p := new(big.Rat).Set(w[col*n+col])
		for c := 0; c < n; c++ {
			w[col*n+c] = new(big.Rat).Quo(w[col*n+c], p)
			inv[col*n+c] = new(big.Rat).Quo(inv[col*n+c], p)
		}
		t := new(big.Rat)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := new(big.Rat).Set(w[r*n+col])
			if f.Sign() == 0 {
				continue
			}
			for c := 0; c < n; c++ {
				t.Mul(f, w[col*n+c])
				w[r*n+c] = new(big.Rat).Sub(w[r*n+c], t)
				t.Mul(f, inv[col*n+c])
				inv[r*n+c] = new(big.Rat).Sub(inv[r*n+c], t)
			}
		}
	}
	return inv, true
}
