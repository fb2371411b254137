package repro_test

import (
	"context"
	"runtime"
	"testing"

	"repro"
)

// measureAllocCeiling bounds the measure loop's steady-state heap
// allocations: objects per extra million measured instructions, with
// every observer on. Measured at 72–2,869 across the eight workloads
// and both dispatch paths; the ceiling leaves ~30% headroom over the
// largest. A per-event allocation in the loop (one per call, per
// activation, per retired instruction) lands far above it.
const measureAllocCeiling = 3700

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMeasureLoopAllocationGate pins that the measure loop allocates
// (almost) nothing per instruction: for every workload on both the
// translated and the interpreted path, the heap objects a run
// allocates grow by less than measureAllocCeiling per extra million
// measured instructions. Taking the difference between two measure
// windows cancels setup (compilation, observer tables, the first
// batches), so only the loop's steady state is measured.
func TestMeasureLoopAllocationGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("simulates ~45M instructions: skipped in -short and -race runs")
	}
	const short, long = 500_000, 1_500_000
	ctx := context.Background()
	mallocs := func(name string, cfg repro.Config) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := repro.RunWorkload(ctx, name, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, interpreted := range []bool{false, true} {
		for _, name := range repro.Workloads() {
			cfg := repro.Config{SkipInstructions: 100_000, MeasureInstructions: short, DisableTranslation: interpreted}
			mallocs(name, cfg) // warm: compiled image, pools
			base := mallocs(name, cfg)
			cfg.MeasureInstructions = long
			grown := mallocs(name, cfg)
			per := (float64(grown) - float64(base)) / (float64(long-short) / 1e6)
			t.Logf("%-5s interpreted=%-5v %6.0f allocations per extra Minst", name, interpreted, per)
			if per > measureAllocCeiling {
				t.Errorf("%s (interpreted=%v): %.0f allocations per extra Minst, above the ceiling %d",
					name, interpreted, per, measureAllocCeiling)
			}
		}
	}
}
