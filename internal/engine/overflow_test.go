package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nestlang"
)

// rotationOverflowNests are large-coefficient random nests whose
// optimization overflows int64 while a macro-communication's rotation
// is applied to a component of several vertices. With the component
// walked in map order, which vertex overflowed first, and so the
// operands in the message, changed from run to run.
var rotationOverflowNests = []string{`nest r1036 {
  array r1036_a0[2]
  array r1036_a1[2]
  loop (i, j, k) {
    r1036_S0: r1036_a1[-71286*i - 35643*j + 71286*k + 2, -396874*i + 396874*j + 198437*k - 1] = f(r1036_a1[14142*k, 68230*j + 1], r1036_a1[-266032*i - 133016*j + 133016*k + 2, 90177*i - 180354*j - 90177*k + 2])
  }
  loop (i, j) {
    r1036_S1: r1036_a1[169085*i - 169085*j + 1, -210720*j - 2] = r1036_a0[93360*j - 2, 14654*i + 7327*j - 1]
  }
}`, `nest r1334 {
  array r1334_a0[3]
  array r1334_a1[2]
  array r1334_a2[2]
  loop (i, j) {
    r1334_S0: r1334_a2[1560254*i + 780127*j + 2, 2004276*i - 2004276*j + 1] += f(r1334_a1[-353448*i - 176724*j, 1006638*i + 2013276*j - 1], r1334_a1[-859760*j - 2, 1490049*i - 1])
  }
  loop (i, j, k) {
    r1334_S1: r1334_a2[-834682*i + 417341*j - 834682*k, 3404798*k - 2] = f(r1334_a1[-120962*i + 241924*k - 1, -184775*i - 184775*j - 369550*k - 2], r1334_a1[2064214*i + 1032107*k - 2, -3962144*i + 1981072*j - 1])
  }
}`}

// TestOverflowMessageDeterministic: an optimization that overflows
// fails with the same message on every run in one process.
func TestOverflowMessageDeterministic(t *testing.T) {
	for _, src := range rotationOverflowNests {
		var first string
		for run := 0; run < 8; run++ {
			_, err := Optimize(context.Background(), nil, nestlang.MustParse(src), 2, core.Options{})
			if err == nil || !strings.Contains(err.Error(), "int64 overflow") {
				t.Fatalf("run %d: err = %v, want an int64 overflow", run, err)
			}
			if run == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("run %d failed with %q, run 0 with %q", run, err, first)
			}
		}
	}
}
