//go:build race

package compiled_test

// The race detector makes sync.Pool drop a share of its puts, so a
// pooled path allocates under -race by design.
func init() { raceEnabled = true }
