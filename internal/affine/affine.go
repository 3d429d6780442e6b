// Package affine defines the intermediate representation of affine
// loop nests used throughout this library: programs made of
// statements of some depth d accessing arrays through affine
// functions I ↦ F·I + c, plus multidimensional linear schedules.
//
// This is the abstraction layer the paper works in: a (possibly
// non-perfect) nest is fully described by its statements' depths, its
// arrays' ranks, and one (F, c) pair per array reference. Programs
// can be built programmatically (see examples.go) or parsed from the
// small DSL in package nestlang.
package affine

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/intmat"
)

// Array describes an array variable of the nest.
type Array struct {
	Name string
	Dim  int // q_x: number of subscripts
}

// Access is one affine array reference x(F·I + C) appearing in a
// statement of depth d; F is q_x×d and C has length q_x.
type Access struct {
	Array string
	F     *intmat.Mat
	C     []int64
	Write bool
	// Reduction marks a combined read-modify-write with an
	// associative/commutative operator (s = s ⊕ …), the shape of the
	// paper's Example 4.
	Reduction bool
}

// String renders the access like "read a F=[1 0; 0 1] c=(0,0)".
func (a Access) String() string {
	return string(a.appendText(nil))
}

// appendText appends the String rendering of a to dst.
func (a Access) appendText(dst []byte) []byte {
	kind := "read "
	if a.Write {
		kind = "write "
	}
	if a.Reduction {
		kind = "reduce "
	}
	dst = append(append(dst, kind...), a.Array...)
	dst = append(dst, " F="...)
	if a.F == nil {
		dst = append(dst, "<nil>"...)
	} else {
		dst = a.F.AppendString(dst)
	}
	dst = append(dst, " c=("...)
	for i, v := range a.C {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ')')
}

// Statement is one statement of the nest with its depth (number of
// surrounding loops), the names of its loop indices, its array
// accesses and its schedule.
type Statement struct {
	Name     string
	Depth    int
	Indices  []string
	Accesses []Access
	// Schedule is the linear multidimensional schedule θ_S (s×d):
	// instance I executes at time step θ_S·I (lexicographically).
	// A schedule with zero rows (or nil) means every instance runs at
	// the same time step — the all-parallel (DOALL) case.
	Schedule *intmat.Mat
}

// ScheduleOrEmpty returns the statement schedule, or a 0×Depth matrix
// when none was set.
func (s *Statement) ScheduleOrEmpty() *intmat.Mat {
	if s.Schedule == nil {
		return intmat.Zero(0, s.Depth)
	}
	return s.Schedule
}

// Program is an affine (multi-)loop nest.
//
// A program is immutable once its text has been read (String,
// PrefixedString, or a scenario's plan key built from them): the
// rendering is memoized for the life of the program, and programs
// are shared read-only across concurrent workers.
type Program struct {
	Name       string
	Arrays     []*Array
	Statements []*Statement

	// text memoizes the rendering; nil until first read.
	text atomic.Pointer[programText]
}

// programText is a memoized program rendering behind the prefix most
// recently asked of PrefixedString: s[:n] is the prefix, s[n:] the
// program text.
type programText struct {
	s string
	n int
}

// Array returns the array with the given name, or nil.
func (p *Program) Array(name string) *Array {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Statement returns the statement with the given name, or nil.
func (p *Program) Statement(name string) *Statement {
	for _, s := range p.Statements {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// AddArray appends an array declaration.
func (p *Program) AddArray(name string, dim int) *Array {
	a := &Array{Name: name, Dim: dim}
	p.Arrays = append(p.Arrays, a)
	return a
}

// Validate checks the structural invariants of the program: unique
// names, access shapes consistent with statement depth and array
// dimension, schedules with Depth columns.
func (p *Program) Validate() error {
	seenA := map[string]bool{}
	for _, a := range p.Arrays {
		if a.Name == "" || a.Dim <= 0 {
			return fmt.Errorf("affine: array %q has invalid dimension %d", a.Name, a.Dim)
		}
		if seenA[a.Name] {
			return fmt.Errorf("affine: duplicate array %q", a.Name)
		}
		seenA[a.Name] = true
	}
	seenS := map[string]bool{}
	for _, s := range p.Statements {
		if s.Name == "" {
			return fmt.Errorf("affine: unnamed statement")
		}
		if seenS[s.Name] {
			return fmt.Errorf("affine: duplicate statement %q", s.Name)
		}
		seenS[s.Name] = true
		if seenA[s.Name] {
			return fmt.Errorf("affine: name %q used for both array and statement", s.Name)
		}
		if s.Depth <= 0 {
			return fmt.Errorf("affine: statement %q has depth %d", s.Name, s.Depth)
		}
		if len(s.Indices) != 0 && len(s.Indices) != s.Depth {
			return fmt.Errorf("affine: statement %q has %d index names for depth %d", s.Name, len(s.Indices), s.Depth)
		}
		if s.Schedule != nil && s.Schedule.Cols() != s.Depth {
			return fmt.Errorf("affine: statement %q schedule has %d cols, depth %d", s.Name, s.Schedule.Cols(), s.Depth)
		}
		nWrites := 0
		for i, acc := range s.Accesses {
			arr := p.Array(acc.Array)
			if arr == nil {
				return fmt.Errorf("affine: statement %q access %d references unknown array %q", s.Name, i, acc.Array)
			}
			if acc.F == nil {
				return fmt.Errorf("affine: statement %q access %d has nil matrix", s.Name, i)
			}
			if acc.F.Rows() != arr.Dim || acc.F.Cols() != s.Depth {
				return fmt.Errorf("affine: statement %q access to %q has F %dx%d, want %dx%d",
					s.Name, acc.Array, acc.F.Rows(), acc.F.Cols(), arr.Dim, s.Depth)
			}
			if len(acc.C) != arr.Dim {
				return fmt.Errorf("affine: statement %q access to %q has offset length %d, want %d",
					s.Name, acc.Array, len(acc.C), arr.Dim)
			}
			if acc.Write {
				nWrites++
			}
		}
		if nWrites > 1 {
			return fmt.Errorf("affine: statement %q has %d writes, want at most 1", s.Name, nWrites)
		}
	}
	return nil
}

// NewStatement appends a statement to the program and returns it.
func (p *Program) NewStatement(name string, indices ...string) *Statement {
	s := &Statement{Name: name, Depth: len(indices), Indices: indices}
	p.Statements = append(p.Statements, s)
	return s
}

// Read appends a read access to the statement.
func (s *Statement) Read(array string, f *intmat.Mat, c ...int64) *Statement {
	s.Accesses = append(s.Accesses, Access{Array: array, F: f, C: pad(c, f.Rows())})
	return s
}

// Write appends the write access of the statement.
func (s *Statement) Write(array string, f *intmat.Mat, c ...int64) *Statement {
	s.Accesses = append(s.Accesses, Access{Array: array, F: f, C: pad(c, f.Rows()), Write: true})
	return s
}

// Reduce appends a reduction access (s = s ⊕ …) to the statement.
func (s *Statement) Reduce(array string, f *intmat.Mat, c ...int64) *Statement {
	s.Accesses = append(s.Accesses, Access{Array: array, F: f, C: pad(c, f.Rows()), Write: true, Reduction: true})
	return s
}

// Seq sets the schedule of the statement: the given rows of the
// identity (0-based loop positions) are executed sequentially,
// outermost first; all remaining dimensions are parallel.
func (s *Statement) Seq(dims ...int) *Statement {
	th := intmat.Zero(len(dims), s.Depth)
	for r, d := range dims {
		th.Set(r, d, 1)
	}
	s.Schedule = th
	return s
}

func pad(c []int64, n int) []int64 {
	out := make([]int64, n)
	copy(out, c)
	return out
}

// String gives a compact multi-line rendering of the program. It is
// canonical — every array, depth, schedule and access matrix is in
// it, so equal texts mean equal programs — and computed once per
// program.
func (p *Program) String() string {
	if t := p.text.Load(); t != nil {
		return t.s[t.n:]
	}
	s := string(p.appendText(nil))
	p.text.CompareAndSwap(nil, &programText{s: s})
	return s
}

// PrefixedString returns prefix followed by p.String(). The result is
// memoized for the most recent prefix: asking again with an equal
// prefix returns the same string without rendering or copying, which
// is what keeps a plan-key lookup on a long-lived program free.
func (p *Program) PrefixedString(prefix []byte) string {
	t := p.text.Load()
	if t != nil && t.s[:t.n] == string(prefix) {
		return t.s
	}
	text := p.String()
	b := make([]byte, 0, len(prefix)+len(text))
	s := string(append(append(b, prefix...), text...))
	p.text.Store(&programText{s: s, n: len(prefix)})
	return s
}

// appendText appends the program rendering to dst.
func (p *Program) appendText(dst []byte) []byte {
	dst = append(append(dst, "nest "...), p.Name...)
	dst = append(dst, '\n')
	for _, a := range p.Arrays {
		dst = append(append(dst, "  array "...), a.Name...)
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(a.Dim), 10)
		dst = append(dst, "]\n"...)
	}
	for _, s := range p.Statements {
		dst = append(append(dst, "  "...), s.Name...)
		dst = append(dst, " (depth "...)
		dst = strconv.AppendInt(dst, int64(s.Depth), 10)
		if th := s.ScheduleOrEmpty(); th.Rows() > 0 {
			dst = th.AppendString(append(dst, ", schedule "...))
		}
		dst = append(dst, ")\n"...)
		for _, acc := range s.Accesses {
			dst = acc.appendText(append(dst, "    "...))
			dst = append(dst, '\n')
		}
	}
	return dst
}
