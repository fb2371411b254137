package repro_test

// Sweep-engine integration contracts, cell by cell against the
// standalone runner:
//
//   - Differential: a cell runs at Cell.RunConfig (census and reuse
//     buffer only), and every cell report a sweep produces is
//     byte-identical (canonical JSON) to RunWorkload at that config —
//     through a cold cache, a warm cache, and any parallelism. The
//     sweep engine must add exactly nothing to the measurement. Each
//     cell's artifact fields also equal a full standalone run's at
//     Cell.Config, and the pruned report equals the full one with the
//     pruned observers' fields zeroed: pruning removes those fields
//     and changes nothing else.
//   - Warm-cache economics: re-running a sweep against its own cache
//     simulates zero cells (cache_* and sweep_* counters prove it)
//     and still renders byte-identical artifacts.
//   - Golden corpus: a 3-size × 2-assoc × 2-policy grid over all
//     eight workloads is pinned under testdata/golden/sweep/ as both
//     CSV and JSON; regenerate deliberately with
//
//	go test -run TestGoldenSweep -update .

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// diffSpec is the differential grid: small but covering both set-index
// paths (64 is pow2-sets at assoc 1 and 4; 8192 likewise), every
// replacement policy, and two workloads with different instruction
// mixes. 24 cells × ~21k instructions keeps it race-detector friendly.
func diffSpec() *sweep.Spec {
	return &sweep.Spec{
		Entries:   []int{64, 8192},
		Assoc:     []int{1, 4},
		Policies:  []string{"lru", "fifo", "random"},
		Workloads: []string{"lzw", "scrip"},
		Skip:      1_000,
		Measure:   20_000,
	}
}

// withoutPrunedObservers returns a copy of a full report with every
// field of the observers a sweep cell does not run zeroed: taint
// (Table 3), the function analysis (Tables 4 and 8, Figure 5, the
// profile), the local analysis (Tables 5-7 and 9, Figure 6), the
// value predictor and the value profile.
func withoutPrunedObservers(r *repro.Report) *repro.Report {
	var zero repro.Report
	cp := *r
	cp.Table3 = zero.Table3
	cp.Table4 = zero.Table4
	cp.Local = zero.Local
	cp.Table8 = zero.Table8
	cp.Fig5 = zero.Fig5
	cp.Table9 = zero.Table9
	cp.Table9Coverage = zero.Table9Coverage
	cp.Fig6 = zero.Fig6
	cp.VPred = zero.VPred
	cp.Profile = zero.Profile
	cp.VProfile = zero.VProfile
	return &cp
}

func TestSweepDifferentialAgainstStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	ctx := context.Background()
	sp := diffSpec()
	cells, err := sweep.Expand(sp)
	if err != nil {
		t.Fatal(err)
	}

	// Standalone references per cell: the pruned run the cell must
	// reproduce byte for byte, and the full run whose Table 10 fields
	// the artifact must carry.
	pruned := make([][]byte, len(cells))
	full := make([]*repro.Report, len(cells))
	for i, c := range cells {
		rep, err := repro.RunWorkload(ctx, c.Workload, c.RunConfig())
		if err != nil {
			t.Fatalf("%s standalone: %v", c.ID(), err)
		}
		pruned[i] = mustCanonical(t, rep)
		if full[i], err = repro.RunWorkload(ctx, c.Workload, c.Config); err != nil {
			t.Fatalf("%s full standalone: %v", c.ID(), err)
		}
		if zeroed := mustCanonical(t, withoutPrunedObservers(full[i])); !bytes.Equal(zeroed, pruned[i]) {
			t.Errorf("%s: pruned report differs from the full one beyond the pruned observers\n%s",
				c.ID(), firstDiff(zeroed, pruned[i]))
		}
	}

	cache, err := resultcache.NewWith(resultcache.Options{
		MaxEntries: 2 * len(cells),
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := &repro.Runner{Cache: cache}

	// The cold pass at full parallelism misses the cache on every
	// cell; the warm passes simulate nothing and hit on every cell.
	var results []*sweep.Result
	for pass, p := range []struct {
		name     string
		parallel int
	}{
		{"cold", runtime.GOMAXPROCS(0)},
		{"warm", 1},
		{"warm", runtime.GOMAXPROCS(0)},
	} {
		label := fmt.Sprintf("%s parallel=%d", p.name, p.parallel)
		reg := obs.NewRegistry()
		eng := &sweep.Engine{Run: runner.RunWorkload, Parallel: p.parallel, Metrics: reg}
		res, err := eng.Execute(ctx, sp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		results = append(results, res)
		if got := reg.Counter("sweep_cells_ok").Value(); got != uint64(len(cells)) {
			t.Errorf("%s: sweep_cells_ok = %d, want %d", label, got, len(cells))
		}
		if got := cache.Stats.Misses.Value(); got != uint64(len(cells)) {
			t.Errorf("%s: cache misses = %d, want %d", label, got, len(cells))
		}
		if got := cache.Stats.Hits.Value() + cache.Stats.DiskHits.Value(); got != uint64(pass*len(cells)) {
			t.Errorf("%s: cache hits = %d, want %d", label, got, pass*len(cells))
		}
		for i, c := range cells {
			cell := res.Cells[i]
			if cellJSON := mustCanonical(t, cell.Report); !bytes.Equal(cellJSON, pruned[i]) {
				t.Errorf("%s %s: sweep cell report diverges from standalone run\n%s",
					label, c.ID(), firstDiff(pruned[i], cellJSON))
			}
			f := full[i]
			if cell.Measured != f.MeasuredInstructions || cell.DynTotal != f.DynTotal ||
				cell.HitPctAll != f.ReusePctAll || cell.HitPctRepeated != f.ReusePctRepeated {
				t.Errorf("%s %s: artifact fields %d/%d/%v/%v, full run %d/%d/%v/%v", label, c.ID(),
					cell.Measured, cell.DynTotal, cell.HitPctAll, cell.HitPctRepeated,
					f.MeasuredInstructions, f.DynTotal, f.ReusePctAll, f.ReusePctRepeated)
			}
		}
	}

	coldCSV := results[0].CSV()
	coldJS, err := results[0].JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range results[1:] {
		if warmCSV := warm.CSV(); !bytes.Equal(coldCSV, warmCSV) {
			t.Errorf("warm CSV differs from cold CSV\n%s", firstDiff(coldCSV, warmCSV))
		}
		warmJS, err := warm.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(coldJS, warmJS) {
			t.Errorf("warm JSON differs from cold JSON\n%s", firstDiff(coldJS, warmJS))
		}
	}

	// A pruned cell's cache entry is never served for a full-report
	// request of the same design point: that request simulates.
	misses := cache.Stats.Misses.Value()
	rep, err := runner.RunWorkload(ctx, cells[0].Workload, cells[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats.Misses.Value(); got != misses+1 {
		t.Errorf("full-config request after the sweep: cache misses %d -> %d, want one miss", misses, got)
	}
	if got, want := mustCanonical(t, rep), mustCanonical(t, full[0]); !bytes.Equal(got, want) {
		t.Errorf("full-config request served a different report\n%s", firstDiff(want, got))
	}
}

func mustCanonical(t *testing.T, r *repro.Report) []byte {
	t.Helper()
	b, err := repro.CanonicalReportJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cellAllocCeiling pins the heap objects one pruned golden-window cell
// allocates through the engine. Measured at 2465–2475 across runs
// (with and without -race); the ceiling leaves ~10% headroom, so a
// change that re-attaches an observer to sweep cells, or adds
// per-cell setup of that order, fails here deterministically.
const cellAllocCeiling = 2710

func TestSweepCellAllocationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	// One golden-window cell: lzw at 65536 entries, 4-way, LRU.
	sp := &sweep.Spec{
		Entries: []int{65536}, Assoc: []int{4}, Policies: []string{"lru"},
		Workloads: []string{"lzw"}, Skip: 10_000, Measure: 50_000,
	}
	cells, err := sweep.Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := &sweep.Engine{Run: repro.RunWorkload, Parallel: 1, Metrics: obs.NewRegistry()}
	var runErr error
	pruned := testing.AllocsPerRun(5, func() {
		if _, err := eng.Execute(ctx, sp); err != nil {
			runErr = err
		}
	})
	full := testing.AllocsPerRun(5, func() {
		if _, err := repro.RunWorkload(ctx, cells[0].Workload, cells[0].Config); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("allocations per cell: pruned %.0f, all observers %.0f", pruned, full)
	if pruned >= full {
		t.Errorf("pruned cell allocates %.0f objects, not fewer than the %.0f of a full run", pruned, full)
	}
	if pruned > cellAllocCeiling {
		t.Errorf("pruned cell allocates %.0f objects, above the pinned ceiling %d", pruned, cellAllocCeiling)
	}
}

// goldenSweepSpec is the pinned corpus grid: buffer sizes spanning the
// paper's 1K–64K sweep endpoints around the standard 8K point, both a
// direct-mapped and the paper's 4-way geometry, and the two policies
// whose curves differ (FIFO collapses onto LRU at assoc 1).
func goldenSweepSpec() *sweep.Spec {
	return &sweep.Spec{
		Entries:  []int{1024, 8192, 65536},
		Assoc:    []int{1, 4},
		Policies: []string{"lru", "random"},
		Skip:     10_000,
		Measure:  50_000,
	}
}

func TestGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	eng := &sweep.Engine{Run: repro.RunWorkload, Metrics: obs.NewRegistry()}
	res, err := eng.Execute(context.Background(), goldenSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	artifacts := map[string][]byte{
		"sweep.csv":  res.CSV(),
		"sweep.json": js,
	}
	dir := filepath.Join("testdata", "golden", "sweep")
	for name, got := range artifacts {
		path := filepath.Join(dir, name)
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: wrote %d bytes", name, len(got))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden artifact (regenerate with -update): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sweep artifact diverged from golden corpus\n%s",
				name, firstDiff(want, got))
		}
	}
}
