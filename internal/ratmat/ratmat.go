// Package ratmat implements exact dense rational matrices. It
// complements intmat with the operations the paper needs over Q:
// inverses, one-sided pseudo-inverses (appendix §9.2) and the general
// solution of the matrix equation X·F = S (Lemma 2).
//
// A matrix is stored as int64 numerators over one positive common
// denominator, normalized so that the numerators and the denominator
// share no factor; the denominator is then the lcm of the entries'
// reduced denominators, and the representation is unique. Every
// operation runs on these words with checked arithmetic. An operation
// that would overflow, or that has an operand whose value does not fit
// the word form, runs on math/big.Rat instead (the *Rats functions,
// which are also the test oracle of the word routines); its result is
// stored in words again whenever it fits.
package ratmat

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"

	"repro/internal/intmat"
)

// Mat is a dense rows×cols rational matrix.
type Mat struct {
	rows, cols int
	// Word form (den > 0): entry (i, j) is num[i*cols+j]/den, with
	// gcd(num..., den) = 1.
	num []int64
	den int64
	// Big form (den == 0): the entries, row-major, for a value whose
	// common denominator or scaled numerators leave int64.
	rats []*big.Rat
}

// word returns the word-form matrix num/den (den > 0), normalized.
func word(rows, cols int, num []int64, den int64) *Mat {
	g := den
	for _, v := range num {
		if g == 1 {
			break
		}
		g = gcd(g, v)
	}
	if g > 1 {
		for i := range num {
			num[i] /= g
		}
		den /= g
	}
	return &Mat{rows: rows, cols: cols, num: num, den: den}
}

// fromRats returns the matrix of the given entries, in word form when
// it fits.
func fromRats(rows, cols int, rats []*big.Rat) *Mat {
	if n, l, overflow := scaledRats(rats); overflow == "" {
		return &Mat{rows: rows, cols: cols, num: n, den: l}
	}
	return &Mat{rows: rows, cols: cols, rats: rats}
}

// gcd returns gcd(d, |a|) for d > 0.
func gcd(d, a int64) int64 {
	u, v := uint64(d), uint64(a)
	if a < 0 {
		v = -v
	}
	for v != 0 {
		u, v = v, u%v
	}
	return int64(u)
}

// Zero returns the rows×cols zero matrix.
func Zero(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("ratmat: negative dimension")
	}
	return &Mat{rows: rows, cols: cols, num: make([]int64, rows*cols), den: 1}
}

// Identity returns the n×n identity.
func Identity(n int) *Mat {
	m := Zero(n, n)
	for i := 0; i < n; i++ {
		m.num[i*n+i] = 1
	}
	return m
}

// FromInt converts an integer matrix to a rational one.
func FromInt(im *intmat.Mat) *Mat {
	m := Zero(im.Rows(), im.Cols())
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			m.num[i*m.cols+j] = im.At(i, j)
		}
	}
	return m
}

// New builds a matrix from int64 numerators (denominator 1), row-major.
func New(rows, cols int, vals ...int64) *Mat {
	return FromInt(intmat.New(rows, cols, vals...))
}

// Rows returns the row count.
func (m *Mat) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Mat) Cols() int { return m.cols }

// isBig reports whether m is in big form.
func (m *Mat) isBig() bool { return m.den == 0 }

// At returns the entry at (i, j) as a new big.Rat; modifying it does
// not modify m (use Set).
func (m *Mat) At(i, j int) *big.Rat {
	m.check(i, j)
	k := i*m.cols + j
	if m.isBig() {
		return new(big.Rat).Set(m.rats[k])
	}
	return big.NewRat(m.num[k], m.den)
}

// Set stores a copy of v at (i, j).
func (m *Mat) Set(i, j int, v *big.Rat) {
	m.check(i, j)
	r := m.entries()
	r[i*m.cols+j] = new(big.Rat).Set(v)
	*m = *fromRats(m.rows, m.cols, r)
}

// entries returns the entries of m, row-major, as new big.Rat values.
func (m *Mat) entries() []*big.Rat {
	r := make([]*big.Rat, len(m.num)+len(m.rats))
	for k := range r {
		if m.isBig() {
			r[k] = new(big.Rat).Set(m.rats[k])
		} else {
			r[k] = big.NewRat(m.num[k], m.den)
		}
	}
	return r
}

func (m *Mat) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("ratmat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	if m.isBig() {
		return &Mat{rows: m.rows, cols: m.cols, rats: m.entries()}
	}
	return &Mat{rows: m.rows, cols: m.cols, num: slices.Clone(m.num), den: m.den}
}

// Equal reports shape and entry equality. The word form is unique, and
// a value that fits it is never stored in big form, so words compare
// as slices.
func (m *Mat) Equal(n *Mat) bool {
	if m.rows != n.rows || m.cols != n.cols || m.isBig() != n.isBig() {
		return false
	}
	if !m.isBig() {
		return m.den == n.den && slices.Equal(m.num, n.num)
	}
	for i := range m.rats {
		if m.rats[i].Cmp(n.rats[i]) != 0 {
			return false
		}
	}
	return true
}

// IsZero reports whether all entries are zero.
func (m *Mat) IsZero() bool {
	// A zero matrix always fits the word form.
	return !m.isBig() && !slices.ContainsFunc(m.num, func(v int64) bool { return v != 0 })
}

// IsIdentity reports whether m is the identity.
func (m *Mat) IsIdentity() bool {
	if m.rows != m.cols || m.isBig() || m.den != 1 {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			want := int64(0)
			if i == j {
				want = 1
			}
			if m.num[i*m.cols+j] != want {
				return false
			}
		}
	}
	return true
}

// IsInteger reports whether every entry has denominator 1.
func (m *Mat) IsInteger() bool {
	if m.isBig() {
		for _, v := range m.rats {
			if !v.IsInt() {
				return false
			}
		}
		return true
	}
	return m.den == 1
}

// ToInt converts to an integer matrix; the second result is false if
// some entry is not an integer or overflows int64.
func (m *Mat) ToInt() (*intmat.Mat, bool) {
	// A big-form matrix has an entry outside int64 or a denominator
	// lcm outside int64; either way it is not an int64 matrix.
	if m.isBig() || m.den != 1 {
		return nil, false
	}
	return intmat.New(m.rows, m.cols, m.num...), true
}

// ScaledInt clears denominators: it returns an integer matrix N and a
// positive scalar λ such that m = N / λ, with λ the lcm of all entry
// denominators. That is the stored pair; it panics when m is in big
// form, since then N or λ does not fit int64.
func (m *Mat) ScaledInt() (*intmat.Mat, int64) {
	if m.isBig() {
		n, l, overflow := scaledRats(m.rats)
		if overflow != "" {
			panic(overflow)
		}
		return intmat.New(m.rows, m.cols, n...), l
	}
	return intmat.New(m.rows, m.cols, m.num...), m.den
}

// Den returns the λ of ScaledInt without copying the numerators, and
// panics as ScaledInt does when m is in big form.
func (m *Mat) Den() int64 {
	if m.isBig() {
		_, l := m.ScaledInt()
		return l
	}
	return m.den
}

// Transpose returns the transpose.
func (m *Mat) Transpose() *Mat {
	t := &Mat{rows: m.cols, cols: m.rows, den: m.den}
	if m.isBig() {
		t.rats = make([]*big.Rat, len(m.rats))
	} else {
		t.num = make([]int64, len(m.num))
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if m.isBig() {
				t.rats[j*t.cols+i] = m.rats[i*m.cols+j]
			} else {
				t.num[j*t.cols+i] = m.num[i*m.cols+j]
			}
		}
	}
	return t
}

// String renders the matrix like "[1 2/3; 0 1]".
func (m *Mat) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(m.At(i, j).RatString())
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Add returns m + n.
func Add(m, n *Mat) *Mat {
	if m.rows != n.rows || m.cols != n.cols {
		panic("ratmat: Add shape mismatch")
	}
	if r, ok := addWord(m, n, false); ok {
		return r
	}
	return fromRats(m.rows, m.cols, addRats(m.entries(), n.entries(), false))
}

// Sub returns m − n.
func Sub(m, n *Mat) *Mat {
	if m.rows != n.rows || m.cols != n.cols {
		panic("ratmat: Sub shape mismatch")
	}
	if r, ok := addWord(m, n, true); ok {
		return r
	}
	return fromRats(m.rows, m.cols, addRats(m.entries(), n.entries(), true))
}

// addWord is m + n, or m − n when sub is set, over the common
// denominator lcm(den m, den n).
func addWord(m, n *Mat, sub bool) (*Mat, bool) {
	if m.isBig() || n.isBig() {
		return nil, false
	}
	g := gcd(m.den, n.den)
	l, ok := intmat.Mul64(m.den/g, n.den)
	if !ok {
		return nil, false
	}
	sm, sn := l/m.den, l/n.den
	out := make([]int64, len(m.num))
	for i := range out {
		a, ok1 := intmat.Mul64(m.num[i], sm)
		b, ok2 := intmat.Mul64(n.num[i], sn)
		if sub {
			out[i], ok = intmat.Sub64(a, b)
		} else {
			out[i], ok = intmat.Add64(a, b)
		}
		if !ok1 || !ok2 || !ok {
			return nil, false
		}
	}
	return word(m.rows, m.cols, out, l), true
}

// Mul returns m·n.
func Mul(m, n *Mat) *Mat {
	if m.cols != n.rows {
		panic(fmt.Sprintf("ratmat: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	if r, ok := mulWord(m, n); ok {
		return r
	}
	return fromRats(m.rows, n.cols, mulRats(m.rows, m.cols, n.cols, m.entries(), n.entries()))
}

// mulWord is m·n as (num m · num n) / (den m · den n).
func mulWord(m, n *Mat) (*Mat, bool) {
	if m.isBig() || n.isBig() {
		return nil, false
	}
	den, ok := intmat.Mul64(m.den, n.den)
	if !ok {
		return nil, false
	}
	out := make([]int64, m.rows*n.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.num[i*m.cols : (i+1)*m.cols]
		for j := 0; j < n.cols; j++ {
			var acc int64
			for k, x := range mi {
				p, ok1 := intmat.Mul64(x, n.num[k*n.cols+j])
				acc, ok = intmat.Add64(acc, p)
				if !ok1 || !ok {
					return nil, false
				}
			}
			out[i*n.cols+j] = acc
		}
	}
	return word(m.rows, n.cols, out, den), true
}

// MulAll multiplies one or more matrices left to right.
func MulAll(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("ratmat: MulAll of nothing")
	}
	r := ms[0]
	for _, m := range ms[1:] {
		r = Mul(r, m)
	}
	return r
}

// Scale returns k·m.
func Scale(k *big.Rat, m *Mat) *Mat {
	if !m.isBig() && k.Num().IsInt64() && k.Denom().IsInt64() {
		kn, kd := k.Num().Int64(), k.Denom().Int64()
		den, ok := intmat.Mul64(m.den, kd)
		out := make([]int64, len(m.num))
		for i := 0; i < len(out) && ok; i++ {
			out[i], ok = intmat.Mul64(kn, m.num[i])
		}
		if ok {
			return word(m.rows, m.cols, out, den)
		}
	}
	r := m.entries()
	for _, v := range r {
		v.Mul(k, v)
	}
	return fromRats(m.rows, m.cols, r)
}

// Rank returns the rank of m: the rank of its numerators in word form,
// exact Gaussian elimination over Q in big form.
func (m *Mat) Rank() int {
	if m.isBig() {
		return rankRats(m.rows, m.cols, m.entries())
	}
	return intmat.RankOf(m.rows, m.cols, m.num)
}

// FullRank reports rank(m) == min(rows, cols).
func (m *Mat) FullRank() bool {
	want := m.rows
	if m.cols < want {
		want = m.cols
	}
	return m.Rank() == want
}

// Inverse returns m⁻¹ for square non-singular m; the second result is
// false when m is singular.
func (m *Mat) Inverse() (*Mat, bool) {
	if m.rows != m.cols {
		panic("ratmat: Inverse of non-square matrix")
	}
	if inv, singular, ok := inverseWord(m); ok {
		return inv, !singular
	}
	inv, ok := inverseRats(m.rows, m.entries())
	if !ok {
		return nil, false
	}
	return fromRats(m.rows, m.rows, inv), true
}

// inverseWord inverts m = N/λ by fraction-free Gauss–Jordan
// elimination (Bareiss) on [N | I], which ends at [d·I | X] with
// X = d·N⁻¹, so m⁻¹ = λ·X/d. ok is false when m is in big form or an
// entry leaves int64.
func inverseWord(m *Mat) (inv *Mat, singular, ok bool) {
	if m.isBig() {
		return nil, false, false
	}
	n, w2 := m.rows, 2*m.rows
	var buf [128]int64
	w := buf[:]
	if n*w2 > len(buf) {
		w = make([]int64, n*w2)
	}
	w = w[:n*w2]
	for i := 0; i < n; i++ {
		copy(w[i*w2:], m.num[i*n:(i+1)*n])
		clear(w[i*w2+n : (i+1)*w2])
		w[i*w2+n+i] = 1
	}
	prev := int64(1)
	for k := 0; k < n; k++ {
		piv := -1
		for r := k; r < n; r++ {
			if w[r*w2+k] != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, true, true
		}
		pr := w[k*w2 : (k+1)*w2]
		if piv != k {
			for c, x := range w[piv*w2 : (piv+1)*w2] {
				w[piv*w2+c], pr[c] = pr[c], x
			}
		}
		p := pr[k]
		for r := 0; r < n; r++ {
			if r == k {
				continue
			}
			row := w[r*w2 : (r+1)*w2]
			f := row[k]
			for c := range row {
				if c == k {
					continue
				}
				a, ok1 := intmat.Mul64(p, row[c])
				b, ok2 := intmat.Mul64(f, pr[c])
				d, ok3 := intmat.Sub64(a, b)
				if !ok1 || !ok2 || !ok3 || d == math.MinInt64 && prev == -1 {
					return nil, false, false
				}
				row[c] = d / prev
			}
			row[k] = 0
		}
		prev = p
	}
	// prev is the common diagonal d; m⁻¹ = λ·X/d with a positive
	// denominator.
	lam, den := m.den, prev
	if den == math.MinInt64 {
		return nil, false, false
	}
	if den < 0 {
		lam, den = -lam, -den
	}
	out := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if out[i*n+j], ok = intmat.Mul64(lam, w[i*w2+n+j]); !ok {
				return nil, false, false
			}
		}
	}
	return word(n, n, out, den), false, true
}
