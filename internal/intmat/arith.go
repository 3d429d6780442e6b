package intmat

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Checked int64 arithmetic. Every machine-word routine of this package
// (and of package ratmat) goes through these helpers: each reports
// ok=false instead of wrapping. The exported matrix arithmetic below
// turns that into a panic, since an overflow there indicates a logic
// error upstream; the eliminations re-run their math/big twin instead.

// Add64 returns a+b; ok is false when the sum leaves int64.
func Add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0
}

// Sub64 returns a−b; ok is false when the difference leaves int64.
func Sub64(a, b int64) (int64, bool) {
	d := a - b
	return d, (a^b)&(a^d) >= 0
}

// Mul64 returns a·b; ok is false when the product leaves int64. The
// product is formed on the magnitudes with math/bits.
func Mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(absU(a), absU(b))
	if hi != 0 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		// -2^63 is the one negative product whose magnitude is not
		// an int64; the wrapped negation below yields it exactly.
		return -int64(lo), lo <= 1<<63
	}
	return int64(lo), lo <= math.MaxInt64
}

// mulAdd returns a + k·b; ok is false when a step leaves int64.
func mulAdd(a, k, b int64) (int64, bool) {
	p, ok1 := Mul64(k, b)
	s, ok2 := Add64(a, p)
	return s, ok1 && ok2
}

// mulSub returns (a·b − c·d)/q, truncated; ok is false when a step
// leaves int64. It is the Bareiss update, where the division is exact.
func mulSub(a, b, c, d, q int64) (int64, bool) {
	x, ok1 := Mul64(a, b)
	y, ok2 := Mul64(c, d)
	z, ok3 := Sub64(x, y)
	if !ok1 || !ok2 || !ok3 || (z == math.MinInt64 && q == -1) {
		return 0, false
	}
	return z / q, true
}

// absU returns |a| as a uint64, exact also for math.MinInt64.
func absU(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}

func mustAdd(a, b int64) int64 {
	s, ok := Add64(a, b)
	if !ok {
		panic(fmt.Sprintf("intmat: int64 overflow in %d + %d", a, b))
	}
	return s
}

func mustSub(a, b int64) int64 {
	d, ok := Sub64(a, b)
	if !ok {
		panic(fmt.Sprintf("intmat: int64 overflow in %d - %d", a, b))
	}
	return d
}

func mustMul(a, b int64) int64 {
	p, ok := Mul64(a, b)
	if !ok {
		panic(fmt.Sprintf("intmat: int64 overflow in %d * %d", a, b))
	}
	return p
}

// Add returns m + n.
func Add(m, n *Mat) *Mat {
	if m.rows != n.rows || m.cols != n.cols {
		panic("intmat: Add shape mismatch")
	}
	r := Zero(m.rows, m.cols)
	for i := range m.a {
		r.a[i] = mustAdd(m.a[i], n.a[i])
	}
	return r
}

// Sub returns m - n.
func Sub(m, n *Mat) *Mat {
	if m.rows != n.rows || m.cols != n.cols {
		panic("intmat: Sub shape mismatch")
	}
	r := Zero(m.rows, m.cols)
	for i := range m.a {
		r.a[i] = mustSub(m.a[i], n.a[i])
	}
	return r
}

// Neg returns -m.
func Neg(m *Mat) *Mat {
	r := Zero(m.rows, m.cols)
	for i := range m.a {
		r.a[i] = -m.a[i]
	}
	return r
}

// Scale returns k·m.
func Scale(k int64, m *Mat) *Mat {
	r := Zero(m.rows, m.cols)
	for i := range m.a {
		r.a[i] = mustMul(k, m.a[i])
	}
	return r
}

// Mul returns the matrix product m·n.
func Mul(m, n *Mat) *Mat {
	if m.cols != n.rows {
		panic(fmt.Sprintf("intmat: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	r := Zero(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.a[i*m.cols : (i+1)*m.cols]
		for j := 0; j < n.cols; j++ {
			var acc int64
			for k, x := range mi {
				acc = mustAdd(acc, mustMul(x, n.a[k*n.cols+j]))
			}
			r.a[i*r.cols+j] = acc
		}
	}
	return r
}

// MulAll returns the product of one or more matrices, left to right.
func MulAll(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("intmat: MulAll of nothing")
	}
	r := ms[0]
	for _, m := range ms[1:] {
		r = Mul(r, m)
	}
	return r
}

// MulVec returns m·v for a column vector v given as a slice.
func MulVec(m *Mat, v []int64) []int64 {
	if m.cols != len(v) {
		panic("intmat: MulVec shape mismatch")
	}
	out := make([]int64, m.rows)
	for i := 0; i < m.rows; i++ {
		var acc int64
		for k := 0; k < m.cols; k++ {
			acc = mustAdd(acc, mustMul(m.a[i*m.cols+k], v[k]))
		}
		out[i] = acc
	}
	return out
}

// wordScratch is the entry count up to which the word eliminations
// keep their working copy on the stack.
const wordScratch = 64

// scratch returns buf[:n] when it is long enough, else a fresh slice;
// either way the n entries are zero.
func scratch(buf []int64, n int) []int64 {
	if n > len(buf) {
		return make([]int64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// bareiss runs fraction-free Gaussian elimination in place on the
// rows×cols row-major matrix w, skipping columns without a pivot. It
// returns the rank and whether an odd number of row swaps was made;
// ok is false when an entry leaves int64. Every division is exact: an
// entry after step k is a (k+1)-minor of the input.
func bareiss(w []int64, rows, cols int) (rank int, odd, ok bool) {
	prev := int64(1)
	for col := 0; col < cols && rank < rows; col++ {
		piv := -1
		for r := rank; r < rows; r++ {
			if w[r*cols+col] != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			continue
		}
		pr := w[rank*cols : (rank+1)*cols]
		if piv != rank {
			odd = !odd
			for c, x := range w[piv*cols : (piv+1)*cols] {
				w[piv*cols+c], pr[c] = pr[c], x
			}
		}
		p := pr[col]
		for r := rank + 1; r < rows; r++ {
			row := w[r*cols : (r+1)*cols]
			f := row[col]
			for c := col + 1; c < cols; c++ {
				if row[c], ok = mulSub(p, row[c], f, pr[c], prev); !ok {
					return 0, false, false
				}
			}
			row[col] = 0
		}
		prev = p
		rank++
	}
	return rank, odd, true
}

// Rank returns the rank of m, computed exactly by fraction-free
// Gaussian elimination (Bareiss) in int64, or in math/big when an
// entry would overflow.
func (m *Mat) Rank() int { return RankOf(m.rows, m.cols, m.a) }

// RankOf returns the rank of the rows×cols row-major matrix a, which it
// leaves unchanged: Rank for callers that hold the entries but no Mat.
func RankOf(rows, cols int, a []int64) int {
	var buf [wordScratch]int64
	w := scratch(buf[:], len(a))
	copy(w, a)
	if r, _, ok := bareiss(w, rows, cols); ok {
		return r
	}
	return (&Mat{rows: rows, cols: cols, a: a}).rankBig()
}

// rankBig is Rank over math/big: the overflow fallback and the test
// oracle of the word elimination.
func (m *Mat) rankBig() int {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	b := m.toBig()
	rows, cols := m.rows, m.cols
	rank := 0
	prev := big.NewInt(1)
	for col := 0; col < cols && rank < rows; col++ {
		// find pivot
		piv := -1
		for r := rank; r < rows; r++ {
			if b[r][col].Sign() != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			continue
		}
		b[rank], b[piv] = b[piv], b[rank]
		p := b[rank][col]
		for r := rank + 1; r < rows; r++ {
			for c := col + 1; c < cols; c++ {
				// b[r][c] = (p*b[r][c] - b[r][col]*b[rank][c]) / prev
				t1 := new(big.Int).Mul(p, b[r][c])
				t2 := new(big.Int).Mul(b[r][col], b[rank][c])
				t1.Sub(t1, t2)
				t1.Quo(t1, prev)
				b[r][c] = t1
			}
			b[r][col] = big.NewInt(0)
		}
		prev = p
		rank++
	}
	return rank
}

// FullRank reports whether rank(m) == min(rows, cols).
func (m *Mat) FullRank() bool {
	want := m.rows
	if m.cols < want {
		want = m.cols
	}
	return m.Rank() == want
}

// detWord is the determinant of a square m by the word elimination;
// ok is false when an entry, or the determinant, leaves int64.
func (m *Mat) detWord() (int64, bool) {
	if !m.IsSquare() {
		panic("intmat: DetBig of non-square matrix")
	}
	n := m.rows
	if n == 0 {
		return 1, true
	}
	var buf [wordScratch]int64
	w := scratch(buf[:], len(m.a))
	copy(w, m.a)
	rank, odd, ok := bareiss(w, n, n)
	switch {
	case !ok:
		return 0, false
	case rank < n:
		return 0, true
	case odd:
		d := w[n*n-1]
		return -d, d != math.MinInt64
	}
	return w[n*n-1], true
}

// DetBig returns the determinant of a square matrix as a big.Int.
func (m *Mat) DetBig() *big.Int {
	if d, ok := m.detWord(); ok {
		return big.NewInt(d)
	}
	return m.detBig()
}

// detBig is DetBig over math/big: the overflow fallback and the test
// oracle of the word elimination.
func (m *Mat) detBig() *big.Int {
	if !m.IsSquare() {
		panic("intmat: DetBig of non-square matrix")
	}
	n := m.rows
	if n == 0 {
		return big.NewInt(1)
	}
	b := m.toBig()
	sign := 1
	prev := big.NewInt(1)
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if b[r][col].Sign() != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return big.NewInt(0)
		}
		if piv != col {
			b[col], b[piv] = b[piv], b[col]
			sign = -sign
		}
		p := b[col][col]
		for r := col + 1; r < n; r++ {
			for c := col + 1; c < n; c++ {
				t1 := new(big.Int).Mul(p, b[r][c])
				t2 := new(big.Int).Mul(b[r][col], b[col][c])
				t1.Sub(t1, t2)
				t1.Quo(t1, prev)
				b[r][c] = t1
			}
			b[r][col] = big.NewInt(0)
		}
		prev = p
	}
	d := new(big.Int).Set(b[n-1][n-1])
	if sign < 0 {
		d.Neg(d)
	}
	return d
}

// Det returns the determinant as int64, panicking on overflow.
func (m *Mat) Det() int64 {
	if d, ok := m.detWord(); ok {
		return d
	}
	d := m.detBig()
	if !d.IsInt64() {
		panic("intmat: determinant overflows int64")
	}
	return d.Int64()
}

// IsUnimodular reports whether m is square with determinant ±1.
func (m *Mat) IsUnimodular() bool {
	if !m.IsSquare() || m.rows == 0 {
		return m.IsSquare() // 0x0 is vacuously unimodular
	}
	if d, ok := m.detWord(); ok {
		return d == 1 || d == -1
	}
	return m.detBig().CmpAbs(big.NewInt(1)) == 0
}
