package intmat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"testing"
)

// wordSpecials are the entries a 0xC0–0xDF tag selects: the edges of
// int64 and values whose products straddle 2^63.
var wordSpecials = []int64{
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	1 << 31, -(1 << 31), 1<<31 - 1, 1<<31 + 1, 3000000001,
	1 << 32, 1<<32 + 1, 1 << 62, -(1 << 62), 1<<62 - 1, 1<<62 + 1,
	4000000009, 1 << 21,
}

// decodeWordMat reads a matrix from fuzz input: one byte each for the
// row count (0–4) and column count (0–5), then one entry per tag byte.
// A tag below 0xC0 is a small entry in [−8, 7]; 0xC0–0xDF picks a
// wordSpecials value; 0xE0 and above takes the next 8 bytes as a
// little-endian int64. Missing bytes read as zero.
func decodeWordMat(data []byte) *Mat {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	rows, cols := int(next()%5), int(next()%6)
	m := Zero(rows, cols)
	for i := range m.a {
		switch t := next(); {
		case t >= 0xE0:
			var b [8]byte
			for k := range b {
				b[k] = next()
			}
			m.a[i] = int64(binary.LittleEndian.Uint64(b[:]))
		case t >= 0xC0:
			m.a[i] = wordSpecials[int(t-0xC0)%len(wordSpecials)]
		default:
			m.a[i] = int64(t%16) - 8
		}
	}
	return m
}

// bigOf is an int64 matrix as math/big rows, for comparing with the
// twins.
func bigOf(m *Mat) [][]*big.Int { return m.toBig() }

func sameBig(a, b [][]*big.Int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Cmp(b[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

// panicOf runs f and returns its panic value rendered, or "".
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// FuzzIntmatWord checks every machine-word routine of the package
// against its math/big twin on one decoded matrix: the checked
// helpers, rank, determinant, the Hermite reduction (H, Q, U and
// rank) and the kernel basis, of the matrix and its transpose. A word
// routine may give up (ok=false); when it answers, it must answer what
// the twin does, and the exported routine, which falls back, must
// always agree with the twin.
func FuzzIntmatWord(f *testing.F) {
	f.Add([]byte{2, 3, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{3, 3, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xCB})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeWordMat(data)
		checkHelpers(t, m.a)
		for _, x := range []*Mat{m, m.Transpose()} {
			checkRank(t, x)
			checkDet(t, x)
			checkHermite(t, x)
			checkKernel(t, x)
		}
	})
}

func checkHelpers(t *testing.T, a []int64) {
	for i := 0; i+1 < len(a); i++ {
		x, y := a[i], a[i+1]
		bx, by := big.NewInt(x), big.NewInt(y)
		for _, op := range []struct {
			name string
			word func(int64, int64) (int64, bool)
			big  *big.Int
		}{
			{"Add64", Add64, new(big.Int).Add(bx, by)},
			{"Sub64", Sub64, new(big.Int).Sub(bx, by)},
			{"Mul64", Mul64, new(big.Int).Mul(bx, by)},
		} {
			got, ok := op.word(x, y)
			if ok != op.big.IsInt64() || ok && got != op.big.Int64() {
				t.Fatalf("%s(%d, %d) = %d, %v; big says %v", op.name, x, y, got, ok, op.big)
			}
		}
	}
}

func checkRank(t *testing.T, m *Mat) {
	want := m.rankBig()
	w := append([]int64(nil), m.a...)
	if r, _, ok := bareiss(w, m.rows, m.cols); ok && r != want {
		t.Fatalf("word rank of %v = %d, big rank %d", m, r, want)
	}
	if r := m.Rank(); r != want {
		t.Fatalf("Rank(%v) = %d, big rank %d", m, r, want)
	}
}

func checkDet(t *testing.T, m *Mat) {
	n := min(m.rows, m.cols)
	sq := m.SubRows(seq(n)...).SubCols(seq(n)...)
	want := sq.detBig()
	if d, ok := sq.detWord(); ok && big.NewInt(d).Cmp(want) != 0 {
		t.Fatalf("word det of %v = %d, big det %v", sq, d, want)
	}
	if d := sq.DetBig(); d.Cmp(want) != 0 {
		t.Fatalf("DetBig(%v) = %v, big det %v", sq, d, want)
	}
	if u := sq.IsUnimodular(); u != (want.CmpAbs(big.NewInt(1)) == 0) {
		t.Fatalf("IsUnimodular(%v) = %v, det %v", sq, u, want)
	}
}

func checkHermite(t *testing.T, m *Mat) {
	b := rowReduceBig(m)
	var wantQ, wantH, gotQ, gotH *Mat
	wantPanic := panicOf(func() { wantQ, wantH = fromBig(b.Q, b.rows, b.rows), fromBig(b.H, b.rows, b.cols) })
	if p := panicOf(func() { gotQ, gotH = HermiteLeft(m) }); p != wantPanic || p == "" && !(gotQ.Equal(wantQ) && gotH.Equal(wantH)) {
		t.Fatalf("HermiteLeft(%v) = %v, %v (panic %q); big %v, %v (panic %q)", m, gotQ, gotH, p, wantQ, wantH, wantPanic)
	}
	red, ok := rowReduceWord(m)
	if !ok {
		return
	}
	if red.rank != b.rank || !sameBig(bigOf(red.h), b.H) || !sameBig(bigOf(red.q), b.Q) || !sameBig(bigOf(red.u), b.U) {
		t.Fatalf("word Hermite of %v: rank %d H %v Q %v U %v; big rank %d H %v Q %v U %v",
			m, red.rank, red.h, red.q, red.u, b.rank, b.H, b.Q, b.U)
	}
}

func checkKernel(t *testing.T, m *Mat) {
	var want *Mat
	wantPanic := panicOf(func() { want = kernelBasisBig(m) })
	if ker, ok := kernelBasisWord(m); ok && (wantPanic != "" || !ker.Equal(want)) {
		t.Fatalf("word kernel of %v = %v; big %v (panic %q)", m, ker, want, wantPanic)
	}
	var got *Mat
	if p := panicOf(func() { got = KernelBasis(m) }); p != wantPanic || p == "" && !got.Equal(want) {
		t.Fatalf("KernelBasis(%v) = %v (panic %q); big %v (panic %q)", m, got, p, want, wantPanic)
	}
}
