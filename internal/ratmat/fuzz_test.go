package ratmat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/intmat"
)

// ratSpecials are the values a 0xC0–0xDF tag selects: the edges of
// int64 and values whose products straddle 2^63.
var ratSpecials = []int64{
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	1 << 31, -(1 << 31), 1<<31 - 1, 1<<31 + 1, 3000000001,
	1 << 32, 1<<32 + 1, 1 << 62, -(1 << 62), 1<<62 - 1, 1<<62 + 1,
	4000000009, 1 << 21,
}

// ratReader decodes fuzz input. A tag below 0xC0 is a small value in
// [−8, 7]; 0xC0–0xDF picks a ratSpecials value; 0xE0 and above takes
// the next 8 bytes as a little-endian int64. Missing bytes read as
// zero.
type ratReader struct{ data []byte }

func (r *ratReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *ratReader) int() int64 {
	switch t := r.byte(); {
	case t >= 0xE0:
		var b [8]byte
		for k := range b {
			b[k] = r.byte()
		}
		return int64(binary.LittleEndian.Uint64(b[:]))
	case t >= 0xC0:
		return ratSpecials[int(t-0xC0)%len(ratSpecials)]
	default:
		return int64(t%16) - 8
	}
}

// rats reads n entries num/den over one denominator (read first; 0
// reads as 1). With wide set, every entry is scaled by 2^70, so the
// matrix cannot be in word form unless it is zero.
func (r *ratReader) rats(n int, wide bool) []*big.Rat {
	den := r.int()
	if den == 0 {
		den = 1
	}
	out := make([]*big.Rat, n)
	for i := range out {
		out[i] = big.NewRat(r.int(), den)
		if wide {
			out[i].Mul(out[i], new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70)))
		}
	}
	return out
}

func copyRats(a []*big.Rat) []*big.Rat {
	out := make([]*big.Rat, len(a))
	for i, v := range a {
		out[i] = new(big.Rat).Set(v)
	}
	return out
}

func sameRats(a, b []*big.Rat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cmp(b[i]) != 0 {
			return false
		}
	}
	return true
}

// checkForm checks the representation invariants of m against its
// value: word form iff the value fits, with a positive denominator
// sharing no factor with every numerator.
func checkForm(t *testing.T, what string, m *Mat) {
	_, _, overflow := scaledRats(m.entries())
	if m.isBig() != (overflow != "") {
		t.Fatalf("%s: big form %v, but the value's overflow is %q", what, m.isBig(), overflow)
	}
	if m.isBig() {
		return
	}
	g := m.den
	for _, v := range m.num {
		g = gcd(g, v)
	}
	if m.den <= 0 || g != 1 {
		t.Fatalf("%s: not normalized: %v over %d", what, m.num, m.den)
	}
}

// FuzzRatmatWord checks the word routines of the package against their
// math/big.Rat twins on decoded matrices A (r×k), B (k×c) and C (r×k)
// and a scalar: Mul, Add, Sub, Scale, Inverse (of A's leading square
// block), Rank and ScaledInt, with the form invariants on every result.
// Entries near 2^31 and 2^62 and the wide mode (A scaled by 2^70) send
// operations through the fallback.
func FuzzRatmatWord(f *testing.F) {
	f.Add([]byte{2, 2, 2, 0, 1, 1, 2, 3, 4, 1, 5, 6, 7, 8, 1, 1, 0, 0, 1, 2, 3})
	f.Add([]byte{3, 3, 3, 1, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xCA, 0xCB, 0xCC, 0xCD, 0xC0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &ratReader{data}
		rows, inner, cols := int(r.byte()%4), int(r.byte()%4), int(r.byte()%4)
		wide := r.byte()&1 == 1
		ar := r.rats(rows*inner, wide)
		br := r.rats(inner*cols, false)
		cr := r.rats(rows*inner, false)
		k := r.rats(1, false)[0]
		a, b, c := fromRats(rows, inner, copyRats(ar)), fromRats(inner, cols, copyRats(br)), fromRats(rows, inner, copyRats(cr))
		for _, x := range []struct {
			name string
			m    *Mat
			want []*big.Rat
		}{{"A", a, ar}, {"B", b, br}, {"C", c, cr}} {
			checkForm(t, x.name, x.m)
			if !sameRats(x.m.entries(), x.want) {
				t.Fatalf("%s = %v, want entries %v", x.name, x.m, x.want)
			}
		}

		for _, op := range []struct {
			name string
			got  *Mat
			want []*big.Rat
		}{
			{"Mul", Mul(a, b), mulRats(rows, inner, cols, ar, br)},
			{"Add", Add(a, c), addRats(ar, cr, false)},
			{"Sub", Sub(a, c), addRats(ar, cr, true)},
			{"Scale", Scale(k, a), mulRats(1, 1, len(ar), []*big.Rat{k}, ar)},
			{"Transpose", a.Transpose(), transposeRats(rows, inner, ar)},
		} {
			checkForm(t, op.name, op.got)
			if !sameRats(op.got.entries(), op.want) {
				t.Fatalf("%s of %v, %v, %v = %v, want %v", op.name, a, b, c, op.got, op.want)
			}
			if !op.got.Equal(fromRats(op.got.rows, op.got.cols, op.want)) {
				t.Fatalf("%s: Equal disagrees with the entries", op.name)
			}
		}

		if got, want := a.Rank(), rankRats(rows, inner, copyRats(ar)); got != want {
			t.Fatalf("Rank(%v) = %d, want %d", a, got, want)
		}

		n := min(rows, inner)
		sq := make([]*big.Rat, 0, n*n)
		for i := 0; i < n; i++ {
			sq = append(sq, ar[i*inner:i*inner+n]...)
		}
		s := fromRats(n, n, copyRats(sq))
		inv, ok := s.Inverse()
		want, wantOK := inverseRats(n, copyRats(sq))
		if ok != wantOK || ok && !sameRats(inv.entries(), want) {
			t.Fatalf("Inverse(%v) = %v, %v; want %v, %v", s, inv, ok, want, wantOK)
		}
		if ok {
			checkForm(t, "Inverse", inv)
		}

		wantNum, wantDen, overflow := scaledRats(ar)
		var gotNum *intmat.Mat
		var gotDen int64
		p := panicMsg(func() { gotNum, gotDen = a.ScaledInt() })
		if p != overflow || p == "" && (gotDen != wantDen || !gotNum.Equal(intmat.New(rows, inner, wantNum...))) {
			t.Fatalf("ScaledInt(%v) = %v / %d (panic %q); want %v / %d (panic %q)", a, gotNum, gotDen, p, wantNum, wantDen, overflow)
		}
	})
}

func transposeRats(rows, cols int, a []*big.Rat) []*big.Rat {
	out := make([]*big.Rat, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = a[i*cols+j]
		}
	}
	return out
}

// panicMsg runs f and returns its panic value rendered, or "".
func panicMsg(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
