// Package intmat implements exact dense integer matrices and the
// integer linear algebra needed by affine loop-nest alignment:
// rank, determinant, Hermite normal forms, integer kernels,
// unimodular inverses and one-sided integer inverses.
//
// Entries are stored as int64, and every elimination runs in machine
// words with checked arithmetic (Add64, Sub64, Mul64). When an
// intermediate entry would leave int64, the same call re-runs the
// elimination in math/big, so coefficient growth cannot corrupt a
// result. Only a result that itself does not fit int64 panics. The
// alignment matrices of this library (dimensions ≤ 8, small entries)
// stay in words; the math/big routines are the overflow fallback and
// the oracle the word routines are tested against.
package intmat

import (
	"fmt"
	"math/big"
	"strconv"
)

// Mat is a dense rows×cols integer matrix. The zero value is not
// usable; construct with New, Zero, Identity, FromRows or RowVec.
type Mat struct {
	rows, cols int
	a          []int64 // row-major
}

// New returns a rows×cols matrix initialized from vals in row-major
// order. It panics unless len(vals) == rows*cols.
func New(rows, cols int, vals ...int64) *Mat {
	if rows < 0 || cols < 0 {
		panic("intmat: negative dimension")
	}
	if len(vals) != rows*cols {
		panic(fmt.Sprintf("intmat: New(%d,%d) got %d values", rows, cols, len(vals)))
	}
	a := make([]int64, rows*cols)
	copy(a, vals)
	return &Mat{rows: rows, cols: cols, a: a}
}

// Zero returns the rows×cols zero matrix.
func Zero(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("intmat: negative dimension")
	}
	return &Mat{rows: rows, cols: cols, a: make([]int64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := Zero(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]int64) *Mat {
	if len(rows) == 0 {
		return Zero(0, 0)
	}
	c := len(rows[0])
	m := Zero(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("intmat: FromRows with ragged rows")
		}
		copy(m.a[i*c:(i+1)*c], r)
	}
	return m
}

// RowVec returns a 1×n matrix holding vals.
func RowVec(vals ...int64) *Mat { return New(1, len(vals), vals...) }

// ColVec returns an n×1 matrix holding vals.
func ColVec(vals ...int64) *Mat {
	m := Zero(len(vals), 1)
	copy(m.a, vals)
	return m
}

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Mat) Cols() int { return m.cols }

// At returns the entry at row i, column j.
func (m *Mat) At(i, j int) int64 {
	m.check(i, j)
	return m.a[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Mat) Set(i, j int, v int64) {
	m.check(i, j)
	m.a[i*m.cols+j] = v
}

func (m *Mat) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("intmat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	a := make([]int64, len(m.a))
	copy(a, m.a)
	return &Mat{rows: m.rows, cols: m.cols, a: a}
}

// Equal reports whether m and n have identical shape and entries.
func (m *Mat) Equal(n *Mat) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := range m.a {
		if m.a[i] != n.a[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every entry of m is zero.
func (m *Mat) IsZero() bool {
	for _, v := range m.a {
		if v != 0 {
			return false
		}
	}
	return true
}

// IsSquare reports whether m has as many rows as columns.
func (m *Mat) IsSquare() bool { return m.rows == m.cols }

// IsIdentity reports whether m is a square identity matrix.
func (m *Mat) IsIdentity() bool {
	if !m.IsSquare() {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			want := int64(0)
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				return false
			}
		}
	}
	return true
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Mat) Transpose() *Mat {
	t := Zero(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Row returns a copy of row i as a slice.
func (m *Mat) Row(i int) []int64 {
	if i < 0 || i >= m.rows {
		panic("intmat: row out of range")
	}
	r := make([]int64, m.cols)
	copy(r, m.a[i*m.cols:(i+1)*m.cols])
	return r
}

// Col returns a copy of column j as a slice.
func (m *Mat) Col(j int) []int64 {
	if j < 0 || j >= m.cols {
		panic("intmat: col out of range")
	}
	c := make([]int64, m.rows)
	for i := 0; i < m.rows; i++ {
		c[i] = m.At(i, j)
	}
	return c
}

// SubCols returns the matrix formed by columns js of m, in order.
func (m *Mat) SubCols(js ...int) *Mat {
	s := Zero(m.rows, len(js))
	for k, j := range js {
		for i := 0; i < m.rows; i++ {
			s.Set(i, k, m.At(i, j))
		}
	}
	return s
}

// SubRows returns the matrix formed by rows is of m, in order.
func (m *Mat) SubRows(is ...int) *Mat {
	s := Zero(len(is), m.cols)
	for k, i := range is {
		for j := 0; j < m.cols; j++ {
			s.Set(k, j, m.At(i, j))
		}
	}
	return s
}

// Stack returns the (m.rows+n.rows)×cols matrix [m; n].
func Stack(m, n *Mat) *Mat {
	if m.cols != n.cols {
		panic("intmat: Stack column mismatch")
	}
	s := Zero(m.rows+n.rows, m.cols)
	copy(s.a[:len(m.a)], m.a)
	copy(s.a[len(m.a):], n.a)
	return s
}

// Augment returns the rows×(m.cols+n.cols) matrix [m | n].
func Augment(m, n *Mat) *Mat {
	if m.rows != n.rows {
		panic("intmat: Augment row mismatch")
	}
	s := Zero(m.rows, m.cols+n.cols)
	for i := 0; i < m.rows; i++ {
		copy(s.a[i*s.cols:], m.a[i*m.cols:(i+1)*m.cols])
		copy(s.a[i*s.cols+m.cols:], n.a[i*n.cols:(i+1)*n.cols])
	}
	return s
}

// String renders m like "[1 2; 3 4]".
func (m *Mat) String() string {
	return string(m.AppendString(nil))
}

// AppendString appends the String rendering of m to dst.
func (m *Mat) AppendString(dst []byte) []byte {
	dst = append(dst, '[')
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			dst = append(dst, "; "...)
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, m.a[i*m.cols+j], 10)
		}
	}
	return append(dst, ']')
}

// toBig converts m to a big.Int matrix (row-major slice of slices).
func (m *Mat) toBig() [][]*big.Int {
	b := make([][]*big.Int, m.rows)
	for i := range b {
		b[i] = make([]*big.Int, m.cols)
		for j := range b[i] {
			b[i][j] = big.NewInt(m.At(i, j))
		}
	}
	return b
}

// fromBig converts a rows×cols big.Int matrix back to a Mat, panicking
// if an entry overflows int64.
func fromBig(b [][]*big.Int, rows, cols int) *Mat {
	m := Zero(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if !b[i][j].IsInt64() {
				panic("intmat: entry overflows int64: " + b[i][j].String())
			}
			m.Set(i, j, b[i][j].Int64())
		}
	}
	return m
}
