//go:build race

package repro_test

// The race detector slows the simulator about 20×; tests that only
// need many instructions, not concurrency, skip under it.
func init() { raceEnabled = true }
