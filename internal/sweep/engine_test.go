package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// fakeRun fabricates a deterministic report from the cell config, so
// engine tests exercise expansion, merging, and rendering without
// simulating. Hit rate is a made-up pure function of the axes.
func fakeRun(_ context.Context, workload string, cfg core.Config) (*core.Report, error) {
	return &core.Report{
		Benchmark:            workload,
		MeasuredInstructions: cfg.MeasureInstructions,
		DynTotal:             cfg.MeasureInstructions,
		ReusePctAll:          float64(cfg.ReuseEntries%97) + float64(cfg.ReuseAssoc) + float64(cfg.ReusePolicy)/10,
		ReusePctRepeated:     float64(cfg.ReuseEntries % 89),
	}, nil
}

func testSpec() *Spec {
	return &Spec{
		Entries:   []int{64, 256, 1024},
		Assoc:     []int{1, 4},
		Policies:  []string{"lru", "fifo", "random"},
		Workloads: []string{"lzw", "scrip", "odb"},
		Skip:      10,
		Measure:   1000,
	}
}

func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	var artifacts [][]byte
	for _, parallel := range []int{1, 4, 16} {
		reg := obs.NewRegistry()
		e := &Engine{Run: fakeRun, Parallel: parallel, Metrics: reg}
		res, err := e.Execute(context.Background(), testSpec())
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if got, want := len(res.Cells), 3*2*3*3; got != want {
			t.Fatalf("parallel=%d: %d cells, want %d", parallel, got, want)
		}
		if got, want := len(res.Aggregate), 3*2*3; got != want {
			t.Fatalf("parallel=%d: %d aggregate rows, want %d", parallel, got, want)
		}
		csv := res.CSV()
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, append(csv, js...))
		if v := reg.Counter("sweep_cells_ok").Value(); v != uint64(len(res.Cells)) {
			t.Errorf("parallel=%d: sweep_cells_ok = %d, want %d", parallel, v, len(res.Cells))
		}
	}
	for i := 1; i < len(artifacts); i++ {
		if !bytes.Equal(artifacts[0], artifacts[i]) {
			t.Errorf("artifact %d differs from artifact 0 under different parallelism", i)
		}
	}
}

func TestEngineBoundsParallelism(t *testing.T) {
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	run := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer inFlight.Add(-1)
		return fakeRun(ctx, workload, cfg)
	}
	e := &Engine{Run: run, Parallel: 2, Metrics: obs.NewRegistry()}
	if _, err := e.Execute(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak in-flight cells %d, want <= 2", p)
	}
}

// TestEngineFailSoft injects a failing point — a returned error, or a
// panic that the shared fan-out must recover — and requires the failed
// cells to become error rows while every other cell runs and produces
// the same bytes as in a clean sweep.
func TestEngineFailSoft(t *testing.T) {
	clean, err := (&Engine{Run: fakeRun, Metrics: obs.NewRegistry()}).Execute(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected cell failure")
	for _, tc := range []struct {
		name, text string
		fail       func() (*core.Report, error)
	}{
		{"error", "injected cell failure", func() (*core.Report, error) { return nil, boom }},
		{"panic", "recovered panic: injected cell panic", func() (*core.Report, error) { panic("injected cell panic") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
				if workload == "scrip" && cfg.ReuseEntries == 256 {
					return tc.fail()
				}
				return fakeRun(ctx, workload, cfg)
			}
			reg := obs.NewRegistry()
			e := &Engine{Run: run, Metrics: reg}
			res, err := e.Execute(context.Background(), testSpec())
			if err == nil || !strings.Contains(err.Error(), tc.text) {
				t.Fatalf("joined error does not carry the cell failure: %v", err)
			}
			if tc.name == "error" && !errors.Is(err, boom) {
				t.Errorf("joined error does not wrap the cell failure: %v", err)
			}
			var failed, ok int
			for i := range res.Cells {
				if res.Cells[i].OK() {
					ok++
					got, _ := json.Marshal(res.Cells[i])
					want, _ := json.Marshal(clean.Cells[i])
					if !bytes.Equal(got, want) {
						t.Errorf("surviving cell %d differs from the clean sweep", i)
					}
				} else {
					failed++
					if !strings.Contains(res.Cells[i].Error, tc.text) {
						t.Errorf("cell error text %q", res.Cells[i].Error)
					}
				}
			}
			// entries=256 × 2 assoc × 3 policies × workload scrip = 6 failures.
			if failed != 6 || ok != len(res.Cells)-6 {
				t.Errorf("failed=%d ok=%d of %d", failed, ok, len(res.Cells))
			}
			if v := reg.Counter("sweep_cells_failed").Value(); v != 6 {
				t.Errorf("sweep_cells_failed = %d, want 6", v)
			}
			// Aggregates over the failed point still average the survivors.
			for _, a := range res.Aggregate {
				want := 3
				if a.Entries == 256 {
					want = 2
				}
				if a.Workloads != want {
					t.Errorf("aggregate e%d-a%d-%s: %d contributing workloads, want %d",
						a.Entries, a.Assoc, a.Policy, a.Workloads, want)
				}
			}
			// The CSV still renders every row, failures carrying error text.
			rows, err := csv.NewReader(bytes.NewReader(res.CSV())).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if got := len(rows); got != 1+len(res.Cells)+len(res.Aggregate) {
				t.Errorf("CSV has %d rows", got)
			}
			if !strings.Contains(string(res.CSV()), tc.text) {
				t.Error("CSV lost the failure diagnostic")
			}
		})
	}
}

func TestEngineTruncatedReportIsFailure(t *testing.T) {
	run := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
		r, _ := fakeRun(ctx, workload, cfg)
		if workload == "lzw" {
			r.Truncated = true
			r.TruncatedReason = "timeout"
		}
		return r, nil
	}
	e := &Engine{Run: run, Metrics: obs.NewRegistry()}
	res, err := e.Execute(context.Background(), &Spec{Workloads: []string{"lzw", "scrip"}, Measure: 10})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated cell not demoted to failure: %v", err)
	}
	if res.Cells[0].OK() || !res.Cells[1].OK() {
		t.Errorf("unexpected cell outcomes: %+v", res.Cells)
	}
}

func TestEngineProgressAndSpanPerCell(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	e := &Engine{
		Run:     fakeRun,
		Metrics: obs.NewRegistry(),
		Progress: func(p Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	}
	tr := obs.NewTrace("sweep-test")
	ctx := obs.WithTrace(context.Background(), tr)
	sp := testSpec()
	if _, err := e.Execute(ctx, sp); err != nil {
		t.Fatal(err)
	}
	cells, _ := Expand(sp)
	if len(events) != len(cells) {
		t.Fatalf("%d progress events, want %d", len(events), len(cells))
	}
	seenDone := make(map[int]bool)
	for _, p := range events {
		if p.Total != len(cells) {
			t.Errorf("Total = %d", p.Total)
		}
		if seenDone[p.Done] {
			t.Errorf("Done value %d repeated", p.Done)
		}
		seenDone[p.Done] = true
	}
	// One sweep.cell span per cell hangs off the trace root.
	var cellSpans int
	for _, child := range tr.Root().Tree().Children {
		if child.Name == "sweep.cell" {
			cellSpans++
		}
	}
	if cellSpans != len(cells) {
		t.Errorf("%d sweep.cell spans, want %d", cellSpans, len(cells))
	}
}

func TestEngineInvalidSpec(t *testing.T) {
	e := &Engine{Run: fakeRun, Metrics: obs.NewRegistry()}
	if res, err := e.Execute(context.Background(), &Spec{Entries: []int{0}}); err == nil || res != nil {
		t.Fatalf("invalid spec: res=%v err=%v", res, err)
	}
}

func TestCSVQuoting(t *testing.T) {
	r := &Result{Cells: []CellResult{{
		Workload: "lzw", Entries: 8, Assoc: 1, Policy: "lru",
		Error: `boom, "quoted"` + "\nline",
	}}}
	csv := string(r.CSV())
	if !strings.Contains(csv, `"boom, ""quoted""`+"\nline\"") {
		t.Errorf("CSV quoting wrong:\n%s", csv)
	}
}

func TestShapeCannotChangeMeasurement(t *testing.T) {
	// Shape adjusts execution fields; the cell must still run under
	// its RunConfig's measurement key, with only the census and the
	// reuse buffer observing, and the artifact must still record its
	// full Config's key, so shape-ing a timeout alters neither.
	var ran []core.Config
	run := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
		ran = append(ran, cfg)
		return fakeRun(ctx, workload, cfg)
	}
	e := &Engine{
		Run:      run,
		Parallel: 1,
		Metrics:  obs.NewRegistry(),
		Shape:    func(c *core.Config) { c.Timeout = 1e9; c.Parallel = 7 },
	}
	sp := &Spec{Workloads: []string{"lzw"}, Measure: 10}
	cells, err := Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 {
		t.Fatalf("ran %d cells, want 1", len(ran))
	}
	cfg := ran[0]
	if got, want := cfg.MeasurementKey(), cells[0].RunConfig().MeasurementKey(); got != want {
		t.Errorf("measurement key drifted: ran %q, want %q", got, want)
	}
	if cfg.DisableReuse || !cfg.DisableTaint || !cfg.DisableLocal ||
		!cfg.DisableFunc || !cfg.DisableVPred || !cfg.DisableVProf {
		t.Errorf("cell ran with observer toggles %+v, want census and reuse only", cfg)
	}
	if got, want := res.Cells[0].ConfigKey, cells[0].Config.MeasurementKey(); got != want {
		t.Errorf("artifact ConfigKey = %q, want the full config's %q", got, want)
	}
}

func TestShapeChangingMeasurementFailsCell(t *testing.T) {
	// A Shape that touches a measurement field would make the row's
	// axis labels and ConfigKey lie about what ran: the cell fails,
	// naming both keys, and the runner never sees it.
	ran := 0
	run := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
		ran++
		return fakeRun(ctx, workload, cfg)
	}
	reg := obs.NewRegistry()
	e := &Engine{
		Run:      run,
		Parallel: 1,
		Metrics:  reg,
		Shape:    func(c *core.Config) { c.ReuseEntries = 128 },
	}
	sp := &Spec{Entries: []int{64}, Workloads: []string{"lzw"}, Measure: 10}
	cells, err := Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), sp)
	if err == nil {
		t.Fatal("Execute succeeded with a measurement-changing Shape")
	}
	if ran != 0 {
		t.Errorf("runner called %d times, want 0", ran)
	}
	shaped := cells[0].RunConfig()
	shaped.ReuseEntries = 128
	c := res.Cells[0]
	for _, key := range []string{cells[0].RunConfig().MeasurementKey(), shaped.MeasurementKey()} {
		if !strings.Contains(c.Error, key) {
			t.Errorf("cell error %q does not name key %q", c.Error, key)
		}
	}
	if c.OK() || c.HitPctAll != 0 || c.ConfigKey != cells[0].Config.MeasurementKey() {
		t.Errorf("failed cell row = %+v", c)
	}
	if got := reg.Counter("sweep_cells_failed").Value(); got != 1 {
		t.Errorf("sweep_cells_failed = %d, want 1", got)
	}
}

func BenchmarkExpand(b *testing.B) {
	s := testSpec()
	for i := 0; i < b.N; i++ {
		if _, err := Expand(s); err != nil {
			b.Fatal(err)
		}
	}
}
