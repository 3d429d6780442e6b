package compiled

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/scenarios"
)

// TestParseGridCapBeforeAlloc: a grid whose extent lists cross past
// maxGridPoints is rejected before its machine list is built. Two
// 2000-entry lists (an 8 KB grid, 4M points) once allocated 826 MB on
// the way to the rejection.
func TestParseGridCapBeforeAlloc(t *testing.T) {
	list := "{" + strings.Repeat("1,", 1999) + "1}"
	grid := "mesh" + list + "x" + list
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ParseGrid(grid)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a %d-byte grid of 4M points was accepted", len(grid))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting a %d-byte grid allocated %d bytes, want under 1 MiB", len(grid), alloc)
	}
}

// FuzzParseGrid: whatever the input, an accepted grid is within the
// sweep bounds — at most maxGridPoints points, no machine over
// scenarios.MaxMachineNodes nodes, every payload at least one byte.
//
//	go test -run '^$' -fuzz FuzzParseGrid -fuzztime 30s ./internal/compiled
func FuzzParseGrid(f *testing.F) {
	for _, s := range []string{
		"mesh{4..64}x{2..64}:bytes=1k..16M",
		"mesh8x{2,4,8}",
		"fattree{32..256}:bytes=64,4k,1M",
		"mesh{4..32}x8:bytes=1k..32M",
		"mesh4x4:bytes=4611686018427387904..9223372036854775807",
		"mesh{1,2,3}x{1,2}:bytes=1,2,3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseGrid(s)
		if err != nil {
			return
		}
		if g.Points() < 1 || g.Points() > maxGridPoints {
			t.Fatalf("%q: %d points", s, g.Points())
		}
		for _, ms := range g.Machines {
			if ms.Procs() < 1 || ms.Procs() > scenarios.MaxMachineNodes {
				t.Fatalf("%q: machine %s has %d nodes", s, ms, ms.Procs())
			}
		}
		for _, b := range g.Bytes {
			if b < 1 {
				t.Fatalf("%q: payload %d", s, b)
			}
		}
	})
}
