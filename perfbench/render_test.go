package main

import (
	"math/rand"
	"testing"

	"repro/internal/intmat"
	"repro/internal/nestlang"
	"repro/internal/scenarios"
)

// TestRenderRoundTrip checks that the optimize-cold wire text parses
// back to exactly the generated program, for both generator families
// the workload draws from and for every seed tried.
func TestRenderRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		nests, err := coldNests(seed, 40)
		if err != nil {
			t.Fatal(err)
		}
		for _, cn := range nests {
			got, err := nestlang.Parse(cn.text)
			if err != nil {
				t.Fatalf("seed %d: %s does not parse: %v\n%s", seed, cn.prog.Name, err, cn.text)
			}
			if got.String() != cn.prog.String() {
				t.Fatalf("seed %d: round trip changed %s:\n got %s\nwant %s", seed, cn.prog.Name, got, cn.prog)
			}
		}
	}
}

// TestRenderExpressions pins the subscript rendering: signs, unit and
// zero coefficients, constants and the all-zero subscript.
func TestRenderExpressions(t *testing.T) {
	p := nestlang.MustParse(`
nest t {
  array a[3]
  array r[2]
  loop (i, j) seq (j) {
    S: r[i, -j] += g(a[2*i - 3*j + 4, -i - 1, 0], r[j, i])
  }
}`)
	text, err := renderNest(p)
	if err != nil {
		t.Fatal(err)
	}
	want := "nest t {\n  array a[3]\n  array r[2]\n  loop (i, j) seq (j) {\n" +
		"    S: r[i, -j] += f(a[2*i - 3*j + 4, -i - 1, 0], r[j, i])\n  }\n}\n"
	if text != want {
		t.Fatalf("render:\n%s\nwant:\n%s", text, want)
	}
}

// TestRenderRefusesInexpressible checks that programs outside the
// grammar are refused instead of being rendered lossily.
func TestRenderRefusesInexpressible(t *testing.T) {
	p := scenarios.RandomNest(rand.New(rand.NewSource(3)), "x")
	p.Statements[0].Accesses = p.Statements[0].Accesses[:1] // write only
	if _, err := renderNest(p); err == nil {
		t.Error("statement without a read was rendered")
	}
	q := nestlang.MustParse("nest q { array a[2] loop (i, j) { S: a[i, j] = a[j, i] } }")
	q.Statements[0].Schedule = intmat.New(1, 2, 1, 1) // i + j is not a loop index
	if _, err := renderNest(q); err == nil {
		t.Error("skewed schedule was rendered")
	}
}
