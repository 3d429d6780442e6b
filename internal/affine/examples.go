package affine

import (
	"sync"

	"repro/internal/intmat"
)

// PaperExample1 returns the motivating example of the paper
// (Section 2, Example 1): a non-perfect affine nest with three
// statements and three arrays accessed through nine affine matrices
// F1..F9.
//
// The scanned source of the paper garbles the numeric entries of the
// F_i, so this is a faithful *reconstruction* that preserves every
// property the text states and uses:
//
//   - S1 has depth 2 (i, j); S2 and S3 have depth 3 (i, j, k);
//     all loops are DOALL (no dependences, single time step);
//   - a is 2-dimensional, b and c are 3-dimensional;
//   - nine accesses: S1 writes b (F1) and reads a (F2), a (F3), c (F4);
//     S2 writes b (F5) and reads a (F6), a (F7); S3 writes c (F8) and
//     reads a (F9);
//   - F9 is rank-deficient, so it does not appear in the access graph
//     (8 graph edges for 9 accesses, as in Figure 1);
//   - the two edges of maximum integer weight 3 (F5 and F8) can both
//     be zeroed out by a maximum branching (end of Section 2.3);
//   - after branching + augmentation, exactly the two reads of a
//     through F7 (in S2) and F3 (in S1) stay non-local (Section 3);
//   - F7 has a one-dimensional kernel, so the residual F7
//     communication is a partial broadcast; with the canonical root
//     allocation the broadcast direction M_S2·v is NOT axis-parallel
//     and must be rotated by a unimodular matrix (Section 3.1);
//   - the residual F3 communication has a data-flow matrix of
//     determinant 1 that decomposes into exactly two elementary
//     matrices after the rotation (Section 3.2).
func PaperExample1() *Program {
	p := &Program{Name: "example1"}
	p.AddArray("a", 2)
	p.AddArray("b", 3)
	p.AddArray("c", 3)

	f1 := intmat.New(3, 2,
		1, 0,
		0, 1,
		1, 1)
	f2 := intmat.Identity(2)
	f3 := intmat.New(2, 2,
		5, -2,
		-7, 3)
	f4 := intmat.New(3, 2,
		1, 0,
		0, 1,
		0, 0)
	f5 := intmat.Identity(3)
	f6 := intmat.New(2, 3,
		1, 0, 0,
		0, 1, 0)
	f7 := intmat.New(2, 3,
		1, 1, 0,
		0, 1, 1)
	f8 := intmat.Identity(3)
	f9 := intmat.New(2, 3,
		1, 1, 0,
		2, 2, 0) // rank 1: excluded from the access graph

	p.NewStatement("S1", "i", "j").
		Write("b", f1).
		Read("a", f2).
		Read("a", f3).
		Read("c", f4, 0, 0, 1)
	p.NewStatement("S2", "i", "j", "k").
		Write("b", f5).
		Read("a", f6).
		Read("a", f7)
	p.NewStatement("S3", "i", "j", "k").
		Write("c", f8).
		Read("a", f9)
	return p
}

// Example2Broadcast returns the paper's Example 2 shape: a single
// statement reading one array through a rank-deficient-in-kernel
// access, the canonical broadcast situation
//
//	for I do S(I): … = a(Fa·I + ca)
//
// Here depth 3, a 2-dimensional, Fa = [[1,0,0],[0,1,0]] (a(i,j) read
// by every k) — so ker Fa = span{e3} and a broadcast along e3 exists
// whenever M_S·e3 ≠ 0.
func Example2Broadcast() *Program {
	p := &Program{Name: "example2"}
	p.AddArray("a", 2)
	p.AddArray("r", 3)
	fa := intmat.New(2, 3,
		1, 0, 0,
		0, 1, 0)
	p.NewStatement("S", "i", "j", "k").
		Write("r", intmat.Identity(3)).
		Read("a", fa)
	return p
}

// Example3Gather returns the paper's Example 3 shape: a statement
// writing a(F_a·I + c_a). When the array allocation M_a folds one
// iteration dimension away (ker(M_a·F_a) ∋ v with F_a·v ≠ 0 and
// M_S·v ≠ 0), several processors send distinct elements to the same
// owner at the same time step — a gather.
func Example3Gather() *Program {
	p := &Program{Name: "example3"}
	p.AddArray("a", 3)
	p.AddArray("r", 3)
	p.NewStatement("S", "i", "j", "k").
		Write("a", intmat.Identity(3)).
		Read("r", intmat.Identity(3))
	return p
}

// Example4Reduction returns the paper's Example 4 shape: a scalar-like
// accumulation s = s + b(Fb·I + cb). We model the accumulator as a
// 1-dimensional array indexed by a rank-1 access.
func Example4Reduction() *Program {
	p := &Program{Name: "example4"}
	p.AddArray("s", 1)
	p.AddArray("b", 2)
	fs := intmat.New(1, 2, 1, 0) // s(i) accumulated over j
	fb := intmat.Identity(2)
	p.NewStatement("S", "i", "j").
		Reduce("s", fs).
		Read("b", fb)
	return p
}

// Example5 returns the nest of Section 7.2 used to compare the
// local-first strategy with Platonoff's macro-first strategy:
//
//	for t = 1..n (sequential)
//	  forall i, j, k = 1..n
//	    S: a(t,i,j,k) = b(t,i,j)
//
// With m = 2 the broadcast along e_k exists in the initial code
// (ker θ ∩ ker Fb = span{e4}); preserving it (Platonoff) costs n
// partial broadcasts, while mapping b and S together (ours) yields a
// communication-free program.
func Example5() *Program {
	p := &Program{Name: "example5"}
	p.AddArray("a", 4)
	p.AddArray("b", 3)
	fa := intmat.Identity(4)
	fb := intmat.New(3, 4,
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0)
	p.NewStatement("S", "t", "i", "j", "k").
		Write("a", fa).
		Read("b", fb).
		Seq(0)
	return p
}

// MatMul returns the classic matrix-product nest
//
//	forall i, j; for k (reduction):
//	  S: c(i,j) = c(i,j) + a(i,k) * b(k,j)
//
// the paper's running motivation for "kernels that cannot be mapped
// without residual communications" (Section 1): with m = 2, at most
// one of the three accesses can be made local, and the accumulation
// over k is a reduction in the sense of Section 4.4.
func MatMul() *Program {
	p := &Program{Name: "matmul"}
	p.AddArray("a", 2)
	p.AddArray("b", 2)
	p.AddArray("c", 2)
	fc := intmat.New(2, 3,
		1, 0, 0,
		0, 1, 0)
	fa := intmat.New(2, 3,
		1, 0, 0,
		0, 0, 1)
	fb := intmat.New(2, 3,
		0, 0, 1,
		0, 1, 0)
	p.NewStatement("S", "i", "j", "k").
		Reduce("c", fc).
		Read("a", fa).
		Read("b", fb)
	return p
}

// Gauss returns the update nest of Gaussian elimination
//
//	for k (sequential); forall i, j:
//	  S: a(i,j) = a(i,j) − a(i,k) * a(k,j) / a(k,k)
//
// the second kernel Section 1 cites. The reads a(i,k) and a(k,j) are
// the classic pivot-column and pivot-row broadcasts.
func Gauss() *Program {
	p := &Program{Name: "gauss"}
	p.AddArray("a", 2)
	fij := intmat.New(2, 3,
		0, 1, 0,
		0, 0, 1)
	fik := intmat.New(2, 3,
		0, 1, 0,
		1, 0, 0)
	fkj := intmat.New(2, 3,
		1, 0, 0,
		0, 0, 1)
	fkk := intmat.New(2, 3,
		1, 0, 0,
		1, 0, 0)
	p.NewStatement("S", "k", "i", "j").
		Write("a", fij).
		Read("a", fij).
		Read("a", fik).
		Read("a", fkj).
		Read("a", fkk).
		Seq(0)
	return p
}

// Transpose returns a nest whose single communication is a pure
// translation-free transposition r(i,j) = a(j,i): its data-flow matrix
// is the permutation [[0,1],[1,0]], a useful decomposition test case.
func Transpose() *Program {
	p := &Program{Name: "transpose"}
	p.AddArray("a", 2)
	p.AddArray("r", 2)
	p.NewStatement("S", "i", "j").
		Write("r", intmat.Identity(2)).
		Read("a", intmat.New(2, 2, 0, 1, 1, 0))
	return p
}

// Jacobi returns a 2-D five-point stencil sweep
//
//	for t (sequential); forall i, j:
//	  S: b(i,j) = f(a(i,j), a(i−1,j), a(i+1,j), a(i,j−1), a(i,j+1))
//
// All accesses are translations (F = projection, c varies): after
// alignment every residual communication is a constant-distance
// shift, the cheapest kind of Table 1.
func Jacobi() *Program {
	p := &Program{Name: "jacobi"}
	p.AddArray("a", 2)
	p.AddArray("b", 2)
	f := intmat.New(2, 3,
		0, 1, 0,
		0, 0, 1)
	s := p.NewStatement("S", "t", "i", "j").
		Write("b", f).
		Read("a", f).
		Read("a", f, -1, 0).
		Read("a", f, 1, 0).
		Read("a", f, 0, -1).
		Read("a", f, 0, 1)
	s.Seq(0)
	return p
}

// SkewedCopy returns a nest with one unavoidable residual whose
// data-flow matrix is T = [[1,2],[3,7]], the matrix of the paper's
// Table 2: S reads a both directly and through F = T⁻¹ = [[7,-2],
// [-3,1]]; only one of the two reads can be aligned, and with the
// identity access local the skewed access flows from processor F·I
// to processor I — the map T.
func SkewedCopy() *Program {
	p := &Program{Name: "skewedcopy"}
	p.AddArray("a", 2)
	p.AddArray("r", 2)
	f := intmat.New(2, 2,
		7, -2,
		-3, 1)
	p.NewStatement("S", "i", "j").
		Write("r", intmat.Identity(2)).
		Read("a", intmat.Identity(2)).
		Read("a", f)
	return p
}

// examples lists the built-in example programs under the names their
// constructors give them. Each is built at most once per process and
// shared read-only, so a program's memoized text (and every plan key
// built on it) is rendered once, not once per request.
var examples = []struct {
	name string
	get  func() *Program
}{
	{"example1", sync.OnceValue(PaperExample1)},
	{"example2", sync.OnceValue(Example2Broadcast)},
	{"example3", sync.OnceValue(Example3Gather)},
	{"example4", sync.OnceValue(Example4Reduction)},
	{"example5", sync.OnceValue(Example5)},
	{"matmul", sync.OnceValue(MatMul)},
	{"gauss", sync.OnceValue(Gauss)},
	{"transpose", sync.OnceValue(Transpose)},
	{"jacobi", sync.OnceValue(Jacobi)},
	{"skewedcopy", sync.OnceValue(SkewedCopy)},
}

// AllExamples returns every built-in example program, for sweep tests
// and suites. The programs are the shared instances ExampleByName
// returns and must not be modified.
func AllExamples() []*Program {
	progs := make([]*Program, len(examples))
	for i, e := range examples {
		progs[i] = e.get()
	}
	return progs
}

// ExampleByName returns the built-in example program called name, or
// nil if there is none. The program is built once per process and
// shared: it must not be modified.
func ExampleByName(name string) *Program {
	for _, e := range examples {
		if e.name == name {
			return e.get()
		}
	}
	return nil
}
