//go:build race

package trace

// The race detector's instrumentation adds allocations, so the
// allocation gates skip under -race.
func init() { raceEnabled = true }
