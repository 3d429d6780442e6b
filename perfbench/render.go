package main

import (
	"fmt"
	"strings"

	"repro/internal/affine"
)

// renderNest writes p as nestlang source, the text POST /v1/optimize
// parses. Each statement gets a loop block of its own, so index names,
// seq schedules and access order survive the round trip and
// nestlang.Parse(renderNest(p)).String() == p.String(). Programs the
// grammar cannot carry (a statement without exactly one leading write
// and at least one read, or a schedule that is not a list of loop
// indices) are refused.
func renderNest(p *affine.Program) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "nest %s {\n", p.Name)
	for _, a := range p.Arrays {
		fmt.Fprintf(&b, "  array %s[%d]\n", a.Name, a.Dim)
	}
	for _, s := range p.Statements {
		if len(s.Indices) != s.Depth {
			return "", fmt.Errorf("render %s: statement %s has no index names", p.Name, s.Name)
		}
		if len(s.Accesses) < 2 || !s.Accesses[0].Write {
			return "", fmt.Errorf("render %s: statement %s needs a leading write and a read", p.Name, s.Name)
		}
		fmt.Fprintf(&b, "  loop (%s)", strings.Join(s.Indices, ", "))
		seq, err := seqIndices(s)
		if err != nil {
			return "", fmt.Errorf("render %s: %w", p.Name, err)
		}
		if len(seq) > 0 {
			fmt.Fprintf(&b, " seq (%s)", strings.Join(seq, ", "))
		}
		b.WriteString(" {\n")
		lhs := s.Accesses[0]
		op := "="
		if lhs.Reduction {
			op = "+="
		}
		reads := make([]string, 0, len(s.Accesses)-1)
		for _, acc := range s.Accesses[1:] {
			if acc.Write {
				return "", fmt.Errorf("render %s: statement %s has a second write", p.Name, s.Name)
			}
			reads = append(reads, renderAccess(acc, s.Indices))
		}
		rhs := reads[0]
		if len(reads) > 1 {
			rhs = "f(" + strings.Join(reads, ", ") + ")"
		}
		fmt.Fprintf(&b, "    %s: %s %s %s\n  }\n", s.Name, renderAccess(lhs, s.Indices), op, rhs)
	}
	b.WriteString("}\n")
	return b.String(), nil
}

// seqIndices names the loop indices of a statement's schedule, which
// must be rows of the identity (the only schedules nestlang expresses).
func seqIndices(s *affine.Statement) ([]string, error) {
	th := s.ScheduleOrEmpty()
	out := make([]string, 0, th.Rows())
	for r := 0; r < th.Rows(); r++ {
		pos := -1
		for c := 0; c < th.Cols(); c++ {
			switch v := th.At(r, c); {
			case v == 1 && pos < 0:
				pos = c
			case v != 0:
				return nil, fmt.Errorf("statement %s: schedule row %d is not a loop index", s.Name, r)
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("statement %s: schedule row %d is zero", s.Name, r)
		}
		out = append(out, s.Indices[pos])
	}
	return out, nil
}

// renderAccess writes x[e0, e1, ...], one affine subscript per row of F.
func renderAccess(acc affine.Access, idx []string) string {
	subs := make([]string, acc.F.Rows())
	for r := range subs {
		var e strings.Builder
		term := func(neg bool, body string) {
			switch {
			case e.Len() == 0 && neg:
				e.WriteString("-" + body)
			case e.Len() == 0:
				e.WriteString(body)
			case neg:
				e.WriteString(" - " + body)
			default:
				e.WriteString(" + " + body)
			}
		}
		for c, name := range idx {
			k := acc.F.At(r, c)
			if k == 0 {
				continue
			}
			mag := k
			if mag < 0 {
				mag = -mag
			}
			body := name
			if mag != 1 {
				body = fmt.Sprintf("%d*%s", mag, name)
			}
			term(k < 0, body)
		}
		if k := acc.C[r]; k != 0 || e.Len() == 0 {
			mag := k
			if mag < 0 {
				mag = -mag
			}
			term(k < 0, fmt.Sprint(mag))
		}
		subs[r] = e.String()
	}
	return acc.Array + "[" + strings.Join(subs, ", ") + "]"
}
