package scenarios

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// sscanfMachineSpec is the fmt.Sscanf parser ParseMachineSpec
// replaced, kept as the reference for its accept set: a %d extent
// scan followed by a check that the spec renders back to its input.
func sscanfMachineSpec(s string) (MachineSpec, bool) {
	base, algo, _ := strings.Cut(s, ":")
	var spec MachineSpec
	if n, err := fmt.Sscanf(base, "fattree%d", &spec.P); err == nil && n == 1 && spec.P > 0 &&
		base == fmt.Sprintf("fattree%d", spec.P) {
		spec.Algo = algo
		return spec, true
	}
	spec = MachineSpec{Kind: Mesh}
	if n, err := fmt.Sscanf(base, "mesh%dx%d", &spec.P, &spec.Q); err == nil && n == 2 && spec.P > 0 && spec.Q > 0 &&
		base == fmt.Sprintf("mesh%dx%d", spec.P, spec.Q) {
		spec.Algo = algo
		return spec, true
	}
	return MachineSpec{}, false
}

// TestParseMachineSpecAcceptSet: canonical positive decimals only,
// within MaxMachineNodes, with a known algorithm; each rejection
// names its reason.
func TestParseMachineSpecAcceptSet(t *testing.T) {
	const (
		bad     = "bad machine spec"
		big     = "more than 16384 nodes"
		unknown = "unknown collective algorithm"
	)
	for _, c := range []struct {
		in, err string
	}{
		{"fattree5", ""},
		{"fattree16384", ""},
		{"mesh4x4", ""},
		{"mesh128x128", ""},
		{"mesh1x1:flat", ""},
		{"fattree32:binomial-sw", ""},
		{"fattree+5", bad},
		{"fattree-5", bad},
		{"fattree05", bad},
		{"fattree0", bad},
		{"fattree 5", bad},
		{"fattree5 ", bad},
		{"fattree1_0", bad},
		{"fattree0x10", bad},
		{"FATTREE5", bad},
		{"fattree", bad},
		{"mesh 4x4", bad},
		{"mesh4 x4", bad},
		{"mesh4x 4", bad},
		{"mesh4x4x", bad},
		{"mesh4x4x4", bad},
		{"mesh4X4", bad},
		{"mesh0x4", bad},
		{"mesh4x0", bad},
		{"mesh04x4", bad},
		{"mesh4x+4", bad},
		{"meshx4", bad},
		{"mesh4x", bad},
		{"mesh", bad},
		{"", bad},
		{"torus4", bad},
		{"fattree9223372036854775808", bad}, // 2^63: overflows the extent
		{"mesh9223372036854775808x1", bad},
		{"fattree9223372036854775807", big},
		{"fattree16385", big},
		{"mesh128x129", big},
		{"mesh16385x1", big},
		{"mesh4294967296x4294967296", big}, // the product wraps int64
		{"mesh4x4:bogus", unknown},
		{"fattree5:", unknown},
		{"mesh0x4:bogus", unknown},
	} {
		spec, err := ParseMachineSpec(c.in)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("ParseMachineSpec(%q): %v", c.in, err)
		case c.err == "" && spec.String() != c.in:
			t.Errorf("ParseMachineSpec(%q) renders back as %q", c.in, spec)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ParseMachineSpec(%q) = %v, %v; want an error naming %q", c.in, spec, err, c.err)
		}
		// The size-unbounded grammar agrees with the Sscanf reference
		// wherever the algorithm is known.
		if c.err != unknown {
			got, gerr := parseMachineSpec(c.in)
			want, ok := sscanfMachineSpec(c.in)
			if (gerr == nil) != ok || got != want {
				t.Errorf("parseMachineSpec(%q) = %v, %v; Sscanf reference %v, %v", c.in, got, gerr, want, ok)
			}
		}
	}
}

// FuzzParseMachineSpec: every accepted spec renders back to exactly
// its input, is within MaxMachineNodes, and is what the Sscanf
// reference parses too.
func FuzzParseMachineSpec(f *testing.F) {
	for _, s := range []string{"fattree32", "mesh8x8:flat", "mesh4x4x", "fattree05", "mesh0x4", "fattree+5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseMachineSpec(s)
		if err != nil {
			return
		}
		if got := spec.String(); got != s {
			t.Fatalf("ParseMachineSpec(%q) renders back as %q", s, got)
		}
		if spec.Procs() < 1 || spec.Procs() > MaxMachineNodes {
			t.Fatalf("ParseMachineSpec(%q) accepted %d nodes", s, spec.Procs())
		}
		if want, ok := sscanfMachineSpec(s); !ok || want != spec {
			t.Fatalf("ParseMachineSpec(%q) = %+v; Sscanf reference %+v, %v", s, spec, want, ok)
		}
	})
}

// TestPlanPrefixMatchesFmt: appendPlanPrefix renders exactly fmt's
// "m=%d|opts=%+v|", with every option field set in turn (a field
// added to core.Options or alignment.Options and not to the renderer
// fails here) and at the extremes of each integer.
func TestPlanPrefixMatchesFmt(t *testing.T) {
	// Fields are set cumulatively on one root value, recording it
	// after each change.
	var root core.Options
	cases := []core.Options{root}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				walk(f)
			case reflect.Bool:
				f.SetBool(true)
				cases = append(cases, root)
			case reflect.Int, reflect.Int64:
				for _, x := range []int64{-1 << 63, -7, 1<<63 - 1} {
					f.SetInt(x)
					cases = append(cases, root)
				}
			default:
				t.Fatalf("option field %s has kind %s: teach appendPlanPrefix and this test", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	walk(reflect.ValueOf(&root).Elem())
	for _, m := range []int{0, 2, 3, -1, 1<<63 - 1} {
		for _, o := range cases {
			want := fmt.Sprintf("m=%d|opts=%+v|", m, o)
			if got := string(appendPlanPrefix(nil, m, &o)); got != want {
				t.Fatalf("appendPlanPrefix:\n got %s\nwant %s", got, want)
			}
		}
	}
}
