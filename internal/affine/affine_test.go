package affine

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/intmat"
)

func TestAllExamplesValidate(t *testing.T) {
	for _, p := range AllExamples() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestExampleByName: each example is found under the name its
// constructor gives it, as the one shared instance AllExamples also
// returns, and an unknown name finds nothing.
func TestExampleByName(t *testing.T) {
	for _, p := range AllExamples() {
		if got := ExampleByName(p.Name); got != p {
			t.Errorf("ExampleByName(%q) = %p, AllExamples has %p", p.Name, got, p)
		}
	}
	if got := ExampleByName("nope"); got != nil {
		t.Errorf("ExampleByName(\"nope\") = %s", got.Name)
	}
}

func TestPaperExample1Shape(t *testing.T) {
	p := PaperExample1()
	if len(p.Arrays) != 3 || len(p.Statements) != 3 {
		t.Fatalf("arrays=%d stmts=%d", len(p.Arrays), len(p.Statements))
	}
	if p.Array("a").Dim != 2 || p.Array("b").Dim != 3 || p.Array("c").Dim != 3 {
		t.Fatal("wrong array dims")
	}
	n := 0
	for _, s := range p.Statements {
		n += len(s.Accesses)
	}
	if n != 9 {
		t.Fatalf("total accesses = %d, want 9", n)
	}
	// F9 (read of a in S3) must be rank deficient.
	s3 := p.Statement("S3")
	var f9 *intmat.Mat
	for _, acc := range s3.Accesses {
		if !acc.Write {
			f9 = acc.F
		}
	}
	if f9.FullRank() {
		t.Fatal("F9 should be rank-deficient")
	}
	// F3 (second read of a in S1) must be unimodular so its data-flow
	// matrix has determinant ±1 (Section 5 assumes |det T| = 1).
	s1 := p.Statement("S1")
	f3 := s1.Accesses[2].F
	if !f3.IsUnimodular() {
		t.Fatalf("F3 = %v not unimodular", f3)
	}
	// F7 (second read of a in S2) must have a 1-dimensional kernel.
	s2 := p.Statement("S2")
	f7 := s2.Accesses[2].F
	if k := intmat.KernelBasis(f7); k.Cols() != 1 {
		t.Fatalf("ker F7 has dim %d, want 1", k.Cols())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mk := func() *Program {
		p := &Program{Name: "t"}
		p.AddArray("a", 2)
		p.NewStatement("S", "i", "j").Read("a", intmat.Identity(2))
		return p
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	p := mk()
	p.AddArray("a", 2)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate array") {
		t.Fatalf("duplicate array not caught: %v", err)
	}

	p = mk()
	p.Statements[0].Accesses[0].Array = "zz"
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unknown array") {
		t.Fatalf("unknown array not caught: %v", err)
	}

	p = mk()
	p.Statements[0].Accesses[0].F = intmat.Identity(3)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "F 3x3") {
		t.Fatalf("shape mismatch not caught: %v", err)
	}

	p = mk()
	p.Statements[0].Schedule = intmat.Zero(1, 5)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "schedule") {
		t.Fatalf("schedule mismatch not caught: %v", err)
	}

	p = mk()
	p.NewStatement("S", "i")
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate statement") {
		t.Fatalf("duplicate statement not caught: %v", err)
	}

	p = mk()
	p.Statements[0].Accesses[0].Write = true
	p.Statements[0].Write("a", intmat.Identity(2))
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "writes") {
		t.Fatalf("multiple writes not caught: %v", err)
	}
}

func TestSeqSchedule(t *testing.T) {
	p := Gauss()
	s := p.Statement("S")
	th := s.ScheduleOrEmpty()
	if th.Rows() != 1 || th.At(0, 0) != 1 || th.At(0, 1) != 0 || th.At(0, 2) != 0 {
		t.Fatalf("gauss schedule = %v", th)
	}
	// DOALL statement: empty schedule
	mm := MatMul().Statement("S")
	if mm.ScheduleOrEmpty().Rows() != 0 {
		t.Fatal("matmul should be DOALL")
	}
}

func TestExample5Schedule(t *testing.T) {
	p := Example5()
	s := p.Statement("S")
	th := s.ScheduleOrEmpty()
	// sequential on t only
	want := intmat.New(1, 4, 1, 0, 0, 0)
	if !th.Equal(want) {
		t.Fatalf("schedule = %v, want %v", th, want)
	}
}

func TestAccessPadAndKinds(t *testing.T) {
	p := &Program{Name: "t"}
	p.AddArray("x", 3)
	s := p.NewStatement("S", "i", "j", "k")
	s.Read("x", intmat.Identity(3), 1) // short offset padded
	if len(s.Accesses[0].C) != 3 || s.Accesses[0].C[0] != 1 || s.Accesses[0].C[2] != 0 {
		t.Fatalf("pad failed: %v", s.Accesses[0].C)
	}
	s.Reduce("x", intmat.Identity(3))
	acc := s.Accesses[1]
	if !acc.Write || !acc.Reduction {
		t.Fatal("Reduce flags wrong")
	}
	if !strings.Contains(acc.String(), "reduce x") {
		t.Fatalf("String = %q", acc.String())
	}
}

func TestProgramString(t *testing.T) {
	out := PaperExample1().String()
	for _, want := range []string{"nest example1", "array a[2]", "S1 (depth 2)", "read a"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String missing %q:\n%s", want, out)
		}
	}
	g := Gauss().String()
	if !strings.Contains(g, "schedule") {
		t.Fatalf("sequential schedule not rendered:\n%s", g)
	}
}

func TestLookupMissing(t *testing.T) {
	p := PaperExample1()
	if p.Array("nope") != nil || p.Statement("nope") != nil {
		t.Fatal("lookup of missing name should return nil")
	}
}

// TestProgramText: String renders the program once and keeps
// returning that text; PrefixedString puts a prefix in front of the
// same text and hands back one string per prefix until the prefix
// changes.
func TestProgramText(t *testing.T) {
	p := &Program{Name: "t"}
	p.AddArray("a", 2)
	p.NewStatement("S", "i", "j").
		Write("a", intmat.Identity(2)).
		Read("a", intmat.New(2, 2, -3, 4000000000, 0, 1), 1, -2).
		Seq(1)
	p.Statements[0].Accesses = append(p.Statements[0].Accesses, Access{Array: "a", C: []int64{0, 0}, Reduction: true, Write: true})
	want := "nest t\n" +
		"  array a[2]\n" +
		"  S (depth 2, schedule [0 1])\n" +
		"    write a F=[1 0; 0 1] c=(0,0)\n" +
		"    read a F=[-3 4000000000; 0 1] c=(1,-2)\n" +
		"    reduce a F=<nil> c=(0,0)\n"
	if got := p.String(); got != want {
		t.Fatalf("String() =\n%s\nwant\n%s", got, want)
	}
	if got := string(p.appendText(nil)); got != want {
		t.Fatalf("rendering moved:\n%s", got)
	}

	k1 := p.PrefixedString([]byte("m=2|"))
	if k1 != "m=2|"+want {
		t.Fatalf("PrefixedString = %q", k1)
	}
	if k := p.PrefixedString([]byte("m=2|")); unsafe.StringData(k) != unsafe.StringData(k1) {
		t.Error("same prefix rendered a new key")
	}
	if k := p.PrefixedString([]byte("m=3|")); k != "m=3|"+want {
		t.Errorf("PrefixedString(m=3) = %q", k)
	}
	if got := p.String(); got != want {
		t.Errorf("String() after prefixing = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { p.PrefixedString([]byte("m=3|")) }); n != 0 {
		t.Errorf("memoized PrefixedString allocates %.0f times", n)
	}
}
