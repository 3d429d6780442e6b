package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/core"
	"repro/internal/nestlang"
)

// overflowNest makes the alignment step overflow int64 (a panic in
// ratmat.ScaledInt) on every attempt.
const overflowNest = `nest big2 {
  array a[2]
  array b[2]
  array c[2]
  loop (i, j) {
    S: c[i, j] += a[4000000000*i + 3*j, 7*i + 5000000000*j]
    T: b[j, i] += c[2*i + 3000000001*j, i]
    U: a[i, j] += b[3000000007*i + 5*j, 11*i + 4000000009*j]
  }
}`

// TestReportOverflowIsError: single-nest mode turns a panic in the
// paper core into an "internal error" (printed by fatal, exit 1)
// instead of crashing, and writes no partial report.
func TestReportOverflowIsError(t *testing.T) {
	prog, err := nestlang.Parse(overflowNest)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = report(&out, prog, 2, core.Options{})
	if err == nil || !strings.HasPrefix(err.Error(), "internal error: ") {
		t.Fatalf("report on big2 = %v, want an internal error", err)
	}
	if out.Len() != 0 {
		t.Errorf("report wrote %d bytes before failing", out.Len())
	}
}

// TestReport: a well-behaved nest reports its program text, then the
// mapping report.
func TestReport(t *testing.T) {
	prog := affine.ExampleByName("example1")
	var out bytes.Buffer
	if err := report(&out, prog, 2, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), prog.String()+"\n") || !strings.Contains(out.String(), "macro") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
}
