package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/workloads"
)

const (
	goldenDir = "testdata/golden"
	// buildDir holds everything the benchmark writes: Go's caches,
	// the binary, temporary job directories and trace files.
	buildDir = ".bench_build"
	// invariantsFile pins the simulated statistics of every window
	// and input variant the benchmark runs.
	invariantsFile = "perfbench/invariants.json"
)

// variants is how many alternate input variants non-default seeds
// choose from (variants 2..1+variants; variant 1 is the golden one).
const variants = 3

// variantFor maps a seed to the input variant it runs: seed 0 runs
// the standard inputs pinned by the golden corpus.
func variantFor(seed int64) int {
	if seed == 0 {
		return 1
	}
	return 2 + int(uint64(seed)%variants)
}

// quickConfig is the golden window every report-producing workload
// runs (skip 100K, measure 500K, all seven observers).
func quickConfig(variant int) repro.Config {
	cfg := repro.QuickConfig()
	if variant > 1 {
		cfg.InputVariant = variant
	}
	return cfg
}

// env is one invocation's shared state.
type env struct {
	opts    options
	variant int
	refs    *refs
	inv     map[string]counts
	checks  *recorder // invariant checks made outside the measure loop
	tmp     string    // scratch directory under buildDir
}

func newEnv(o options) (*env, error) {
	inv, err := loadInvariants()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{
		opts:    o,
		variant: variantFor(o.seed),
		inv:     inv,
		checks:  newRecorder(),
		tmp:     tmp,
		refs:    &refs{reports: map[string][]byte{}, other: map[string][]byte{}, events: map[string]uint64{}},
	}
	e.refs.source = "references: golden corpus"
	if e.variant != 1 {
		e.refs.source = "references: interpreted path"
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.tmp) }

// refs are the expected outputs of one invocation.
type refs struct {
	mu      sync.Mutex
	source  string
	reports map[string][]byte // canonical report JSON per program (quick window)
	other   map[string][]byte // workload-specific artifacts (sweep CSV/JSON)
	events  map[string]uint64 // measured events per program (quick window)
}

func (r *refs) report(name string) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reports[name]
}

func (r *refs) eventCount(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events[name]
}

// corrupt flips one byte in every expected output.
func (r *refs) corrupt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range []map[string][]byte{r.reports, r.other} {
		for k, v := range m {
			c := append([]byte(nil), v...)
			c[len(c)/2] ^= 0x20
			m[k] = c
		}
	}
}

// buildReports fills the quick-window reference report of each
// program: the golden corpus for the default seed, otherwise a run on
// the interpreted reference path. It also checks each program's
// deterministic counts, the interpreted runs' and the event stream's,
// against the pinned invariants.
func (e *env) buildReports(names []string) error {
	errs := make([]error, len(names))
	parallel(len(names), func(i int) { errs[i] = e.buildReport(names[i]) })
	return errors.Join(errs...)
}

func (e *env) buildReport(name string) error {
	if _, err := compileOnce(name); err != nil {
		return err
	}
	key := invKey("quick", name, e.variant)
	cfg := quickConfig(e.variant)
	ev, err := eventCount(name, cfg)
	if err != nil {
		return err
	}
	want := e.inv[key]
	e.checks.check(key+" events", compareCount("events", ev, want.Events))
	var data []byte
	if e.variant == 1 {
		data, err = os.ReadFile(filepath.Join(goldenDir, name+".json"))
		if err != nil {
			return err
		}
	} else {
		cfg.DisableTranslation = true
		rep, err := repro.RunWorkload(context.Background(), name, cfg)
		if err != nil {
			return err
		}
		e.checks.check(key+" interpreted counts", compareCounts(countsOf(rep), want, true))
		if data, err = repro.CanonicalReportJSON(rep); err != nil {
			return err
		}
	}
	e.refs.mu.Lock()
	e.refs.reports[name] = data
	e.refs.events[name] = ev
	e.refs.mu.Unlock()
	return nil
}

// compileOnce compiles a program into the image the run path reuses,
// so no timed operation pays for its first compilation.
func compileOnce(name string) (*program.Image, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown program %q", name)
	}
	return w.Image()
}

// parallel runs f(0..n-1) on at most two goroutines (the host's core
// count; more would only time-slice).
func parallel(n int, f func(i int)) {
	const workers = 2
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// counts are the deterministic simulated statistics of one run. A
// change that only affects speed must leave every one identical.
type counts struct {
	Retired   uint64 `json:"retired"`
	Loads     uint64 `json:"loads"`
	Stores    uint64 `json:"stores"`
	Repeated  uint64 `json:"repeated"`
	ReuseHits uint64 `json:"reuse_hits"`
	// Events is the machine's event count (instructions, calls and
	// returns) over the measure window.
	Events uint64 `json:"events"`
	// SnapshotBytes is the job probe's snapshot size (lisp only).
	SnapshotBytes uint64 `json:"snapshot_bytes,omitempty"`
}

func invKey(window, program string, variant int) string {
	return fmt.Sprintf("%s/%s/v%d", window, program, variant)
}

// countsOf extracts a report's deterministic counts. The census and
// reuse counts come back from their percentages: both are exact
// ratios over DynTotal, so rounding recovers the integers.
func countsOf(rep *repro.Report) counts {
	c := counts{
		Repeated:  uint64(math.Round(rep.DynRepeatedPct * float64(rep.DynTotal) / 100)),
		ReuseHits: uint64(math.Round(rep.ReusePctAll * float64(rep.DynTotal) / 100)),
	}
	if m := rep.Metrics; m != nil {
		c.Retired, c.Loads, c.Stores = m.Sim.Retired, m.Sim.Loads, m.Sim.Stores
	}
	return c
}

// compareCounts checks a report's counts against the pinned ones;
// withHits includes the reuse-hit count, which is pinned only for the
// quick window's standard buffer (sweep cells vary the buffer).
func compareCounts(got, want counts, withHits bool) error {
	if !withHits {
		got.ReuseHits = want.ReuseHits
	}
	for _, f := range []struct {
		name      string
		got, want uint64
	}{
		{"retired", got.Retired, want.Retired},
		{"loads", got.Loads, want.Loads},
		{"stores", got.Stores, want.Stores},
		{"repeated", got.Repeated, want.Repeated},
		{"reuse_hits", got.ReuseHits, want.ReuseHits},
	} {
		if err := compareCount(f.name, f.got, f.want); err != nil {
			return err
		}
	}
	return nil
}

func compareCount(name string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s = %d, pinned %d", name, got, want)
	}
	return nil
}

// eventCounter counts the machine's event stream.
type eventCounter struct{ n uint64 }

func (c *eventCounter) OnInst(*cpu.Event)      { c.n++ }
func (c *eventCounter) OnCall(*cpu.CallEvent)  { c.n++ }
func (c *eventCounter) OnReturn(*cpu.RetEvent) { c.n++ }

// eventCount runs the program's window on a bare machine and counts
// the events delivered over the measure part.
func eventCount(name string, cfg repro.Config) (uint64, error) {
	w, _ := workloads.ByName(name)
	im, err := w.Image()
	if err != nil {
		return 0, err
	}
	variant := cfg.InputVariant
	if variant <= 0 {
		variant = 1
	}
	m := cpu.New(im, w.Input(variant))
	if _, err := m.Run(cfg.SkipInstructions); err != nil {
		return 0, err
	}
	c := &eventCounter{}
	m.Attach(c)
	if _, err := m.Run(cfg.MeasureInstructions); err != nil {
		return 0, err
	}
	return c.n, nil
}

func loadInvariants() (map[string]counts, error) {
	data, err := os.ReadFile(invariantsFile)
	if err != nil {
		return nil, err
	}
	var inv map[string]counts
	if err := json.Unmarshal(data, &inv); err != nil {
		return nil, fmt.Errorf("%s: %w", invariantsFile, err)
	}
	return inv, nil
}

// decodeReport parses canonical report JSON.
func decodeReport(data []byte) (*repro.Report, error) {
	var r repro.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
