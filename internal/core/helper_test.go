package core

// Tests for the observer helper (helper.go): its lifecycle on every
// exit from Run, panic isolation on the helper goroutine, the
// busy-core rule, and byte-identical goldens with the helper on and
// off. None of them runs in parallel: they set GOMAXPROCS and read the
// process-wide busy count.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/minic"
	"repro/internal/workloads"
)

// withProcs sets GOMAXPROCS for the rest of the test.
func withProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// helperCount tallies the pipelines Run built, with and without a
// helper.
type helperCount struct{ on, off atomic.Int64 }

// recordHelpers counts the pipelines built for the rest of the test;
// extra, when set, also sees each one.
func recordHelpers(t *testing.T, extra func(*Pipeline)) *helperCount {
	c := &helperCount{}
	testHookPipeline = func(p *Pipeline) {
		if p.h != nil {
			c.on.Add(1)
		} else {
			c.off.Add(1)
		}
		if extra != nil {
			extra(p)
		}
	}
	t.Cleanup(func() { testHookPipeline = nil })
	return c
}

// checkHelpersGone asserts that no helper outlived its run: the busy
// count is back to zero, and no helper goroutine is left once the
// scheduler has let the exiting ones finish.
func checkHelpersGone(t *testing.T) {
	t.Helper()
	if n := busySims.Load(); n != 0 {
		t.Errorf("busy simulation count = %d after Run returned, want 0", n)
	}
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		if !bytes.Contains(buf[:n], []byte("core.(*helper).loop")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a helper goroutine outlived Run:\n%s", buf[:n])
		}
	}
}

// panicStage appends a last stage that panics once it sees the event
// with index at.
func panicStage(at uint64) func(*Pipeline) {
	return func(p *Pipeline) {
		p.stages = append(p.stages, stage{name: "boom", run: func(b *batch) {
			if n := len(b.evs); n > 0 && b.evs[n-1].Index >= at {
				panic("stage boom")
			}
		}})
	}
}

func TestHelperPanicBecomesPanicError(t *testing.T) {
	withProcs(t, 4)
	c := recordHelpers(t, panicStage(50_000))
	r, err := Run(context.Background(), loopProgram(t), nil, "boom", Config{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if c.on.Load() != 1 {
		t.Fatalf("pipelines with a helper = %d, want 1", c.on.Load())
	}
	if pe.Benchmark != "boom" || pe.Value != "stage boom" {
		t.Errorf("PanicError = %q / %v", pe.Benchmark, pe.Value)
	}
	if st := string(pe.Stack); !strings.Contains(st, "core.(*helper).loop") || !strings.Contains(st, "panicStage") {
		t.Errorf("panic stack does not cover the panicking stage on the helper:\n%s", pe.Stack)
	}
	if r == nil || !r.Truncated || r.TruncatedReason != ReasonPanic || r.Metrics == nil {
		t.Fatalf("want a partial report truncated by the panic, got %+v", r)
	}
	if r.DynTotal == 0 {
		t.Error("the partial report lost the census statistics")
	}
	checkHelpersGone(t)
}

// TestHelperRetiredOnEveryExit runs each way out of Run with a helper
// attached and checks that none outlives it (a panic on the helper
// itself is TestHelperPanicBecomesPanicError's case).
func TestHelperRetiredOnEveryExit(t *testing.T) {
	withProcs(t, 4)
	im, err := minic.Compile(`
int main() {
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < 2000000; i++) {
		sum = sum + (i & 7);
	}
	return sum & 255;
}`)
	if err != nil {
		t.Fatal(err)
	}
	// Long enough for chunk-boundary snapshots, bounded by the window.
	window := func(c Config) Config {
		c.MeasureInstructions = 600_000
		return c
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     func(cancel context.CancelFunc) Config
		wantErr bool
	}{
		{name: "clean", cfg: func(context.CancelFunc) Config { return Config{} }},
		{name: "cancel", wantErr: true, cfg: func(cancel context.CancelFunc) Config {
			return Config{Checkpoint: &CheckpointPolicy{
				Store: store, Key: "ca0ce1", Every: 1,
				Notify: func(CheckpointEvent) { cancel() },
			}}
		}},
		{name: "timeout", wantErr: true, cfg: func(context.CancelFunc) Config {
			return Config{
				Timeout: 30 * time.Millisecond,
				Faults:  faultinject.NewPlan(faultinject.Fault{Kind: faultinject.SlowStep, At: 20_000, Delay: time.Hour}),
			}
		}},
		{name: "sim-fault", wantErr: true, cfg: func(context.CancelFunc) Config {
			return Config{Faults: faultinject.NewPlan(faultinject.Fault{Kind: faultinject.SimFault, At: 80_000})}
		}},
		{name: "observer-panic", wantErr: true, cfg: func(context.CancelFunc) Config {
			return Config{Faults: faultinject.NewPlan(faultinject.Fault{Kind: faultinject.ObserverPanic, At: 50_000})}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := recordHelpers(t, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r, err := Run(ctx, im, nil, tc.name, window(tc.cfg(cancel)))
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error: %v", err, tc.wantErr)
			}
			if r == nil {
				t.Fatal("no report")
			}
			if c.on.Load() == 0 {
				t.Fatal("the run never had a helper")
			}
			checkHelpersGone(t)
		})
	}

	// A rejected resume builds a second pipeline: both helpers retire.
	// The snapshot carries every observer; the resuming run has no
	// taint analysis, so restore rejects it and the run starts over.
	t.Run("rejected-resume", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := window(Config{Checkpoint: &CheckpointPolicy{
			Store: store, Key: "c0ffee", Every: 1,
			Notify: func(CheckpointEvent) { cancel() },
		}})
		if _, err := Run(ctx, im, nil, "rejected", cfg); err == nil {
			t.Fatal("interrupted run did not error")
		}
		c := recordHelpers(t, nil)
		cfg.DisableTaint = true
		cfg.Checkpoint = &CheckpointPolicy{Store: store, Key: "c0ffee", Resume: true}
		if _, err := Run(context.Background(), im, nil, "rejected", cfg); err != nil {
			t.Fatalf("fallback run failed: %v", err)
		}
		if store.Stats.ResumeRejected.Value() != 1 {
			t.Fatalf("ResumeRejected = %d, want 1", store.Stats.ResumeRejected.Value())
		}
		if c.on.Load() != 2 {
			t.Fatalf("pipelines with a helper = %d, want 2 (the rejected one and the fresh one)", c.on.Load())
		}
		checkHelpersGone(t)
	})
}

func TestNoHelperOnOneProc(t *testing.T) {
	withProcs(t, 1)
	c := recordHelpers(t, nil)
	if _, err := Run(context.Background(), loopProgram(t), nil, "one", Config{}); err != nil {
		t.Fatal(err)
	}
	if c.on.Load() != 0 || c.off.Load() != 1 {
		t.Errorf("GOMAXPROCS=1: %d pipelines with a helper, %d without; want 0 and 1",
			c.on.Load(), c.off.Load())
	}
	checkHelpersGone(t)
}

// goldenConfig is the golden corpus's window (repro.QuickConfig).
func goldenConfig() Config {
	return Config{SkipInstructions: 100_000, MeasureInstructions: 500_000}
}

// goldenRun runs a workload at the golden window and returns its
// canonical report and the golden bytes it must equal.
func goldenRun(t *testing.T, ctx context.Context, w *workloads.Workload, cfg Config) (got, want []byte) {
	t.Helper()
	im, err := w.Image()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(ctx, im, w.Input(1), w.Name, cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if got, err = CanonicalJSON(r); err != nil {
		t.Fatal(err)
	}
	if want, err = os.ReadFile(filepath.Join("..", "..", "testdata", "golden", w.Name+".json")); err != nil {
		t.Fatal(err)
	}
	return got, want
}

// TestHelperDifferentialGoldens: every workload on both dispatch
// paths, with the helper on (GOMAXPROCS 4) and off (GOMAXPROCS 1),
// reproduces the golden corpus byte for byte.
func TestHelperDifferentialGoldens(t *testing.T) {
	for _, procs := range []int{4, 1} {
		withProcs(t, procs)
		c := recordHelpers(t, nil)
		for _, w := range workloads.All() {
			for _, interp := range []bool{false, true} {
				cfg := goldenConfig()
				cfg.DisableTranslation = interp
				if got, want := goldenRun(t, context.Background(), w, cfg); !bytes.Equal(got, want) {
					t.Errorf("GOMAXPROCS=%d interpreted=%v: %s diverged from its golden report", procs, interp, w.Name)
				}
			}
		}
		if on := c.on.Load(); (procs > 1) != (on > 0) {
			t.Errorf("GOMAXPROCS=%d: %d of %d pipelines had a helper", procs, on, on+c.off.Load())
		}
	}
	checkHelpersGone(t)
}

// TestHelperDifferentialCheckpoint: with the helper on, a run that
// snapshots at every chunk boundary (each snapshot a drain) and is
// cut at its first measure-phase snapshot resumes to the golden bytes.
func TestHelperDifferentialCheckpoint(t *testing.T) {
	withProcs(t, 4)
	c := recordHelpers(t, nil)
	w, _ := workloads.ByName("lzw")
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := goldenConfig()
	cfg.Checkpoint = &CheckpointPolicy{
		Store: store, Key: "abc123", Every: 1,
		Notify: func(ev CheckpointEvent) {
			if ev.Phase == "measure" {
				cancel()
			}
		},
	}
	im, err := w.Image()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, im, w.Input(1), w.Name, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	cfg.Checkpoint = &CheckpointPolicy{Store: store, Key: "abc123", Resume: true}
	if got, want := goldenRun(t, context.Background(), w, cfg); !bytes.Equal(got, want) {
		t.Error("the resumed report diverged from its golden report")
	}
	if store.Stats.Resumes.Value() != 1 {
		t.Errorf("Resumes = %d, want 1", store.Stats.Resumes.Value())
	}
	if c.on.Load() != 2 {
		t.Errorf("pipelines with a helper = %d, want 2", c.on.Load())
	}
	checkHelpersGone(t)
}
