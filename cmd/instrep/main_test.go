package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"strings"
	"testing"

	"repro"
)

// TestTickerConcurrentProgress drives the -progress ticker while
// RunAll simulates workloads in parallel: the ticker's goroutine reads
// the run registry as runs register, publish, and finish. Run under
// the race detector (the Makefile `race` target) this fails on any
// unsynchronized progress state.
func TestTickerConcurrentProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run in -short mode")
	}
	var out bytes.Buffer
	cfg := repro.QuickConfig()
	// Force real concurrency regardless of the machine's core count:
	// the contract is concurrency-safety, not parallel speedup.
	cfg.Parallel = 4
	cfg.Runs = repro.NewRunRegistry()
	stop := startTicker(&out, cfg.Runs)
	reports, err := repro.RunAll(context.Background(), cfg)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(repro.Workloads()); len(reports) != want {
		t.Fatalf("got %d reports, want %d", len(reports), want)
	}
	for _, r := range reports {
		if r.MeasuredInstructions == 0 {
			t.Errorf("%s: no instructions measured", r.Benchmark)
		}
	}
	if s := out.String(); s != "" && !strings.HasSuffix(s, "\n") {
		t.Errorf("stopped ticker left its line open: %q", s)
	}
}

// TestTickerLine pins both -progress displays as pure rendering of a
// registry snapshot.
func TestTickerLine(t *testing.T) {
	cases := []struct {
		name string
		snap []repro.RunInfo
		want string
	}{
		{"idle", nil, ""},
		{"one run", []repro.RunInfo{{Benchmark: "lzw", Phase: "measure",
			Retired: 3_000_000, PhaseDone: 2_000_000, PhaseTotal: 5_000_000, MIPS: 10}},
			"lzw measure: 2.0M insts  10.0 MIPS   40%  ETA 0.3s"},
		{"one run, no budget", []repro.RunInfo{{Benchmark: "lzw", Phase: "measure",
			PhaseDone: 2_000_000, MIPS: 10}},
			"lzw measure: 2.0M insts  10.0 MIPS"},
		{"one run, no rate yet", []repro.RunInfo{{Benchmark: "goban", Phase: "skip",
			PhaseDone: 500_000, PhaseTotal: 1_000_000}},
			"goban skip: 500k insts"},
		{"several runs", []repro.RunInfo{
			{Benchmark: "lzw", Phase: "measure", Retired: 1_500_000, MIPS: 12.4},
			{Benchmark: "jpeg", Phase: "load", Retired: 20_000}},
			"[2 running] lzw measure 1.5M 12MIPS | jpeg load 20k"},
	}
	for _, c := range cases {
		if got := tickerLine(c.snap); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestRunCanceledStillEmitsMetrics is the SIGINT-path contract: a
// canceled run exits with an error (nonzero status from main) but the
// -metrics json document still reaches stdout, covering the truncated
// partial report. The test drives cmdRun with an already-canceled
// context, the same state main's signal.NotifyContext produces after ^C.
func TestRunCanceledStillEmitsMetrics(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wp
	runErr := cmdRun(ctx, []string{"-bench", "lzw", "-skip", "1000", "-measure", "50000", "-metrics", "json"})
	wp.Close()
	os.Stdout = old
	out, err := io.ReadAll(rp)
	if err != nil {
		t.Fatal(err)
	}

	if runErr == nil {
		t.Fatal("canceled run must exit nonzero")
	}
	if !strings.Contains(string(out), `"benchmark": "lzw"`) {
		t.Errorf("canceled run did not emit metrics JSON:\n%s", out)
	}
}
