package core_test

// Checkpoint/restore acceptance at the core run path: a run
// interrupted at a chunk boundary and resumed from its snapshot must
// produce a canonical report byte-identical to an uninterrupted run,
// through every phase and observer; snapshots that fail validation
// fall back to a fresh run with the same bytes.

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/program"
)

// checkpointTestProgram runs ~1.6M instructions so the run crosses
// several 256k-instruction chunk boundaries in both phases.
const checkpointTestProgram = `
int table[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int lookup(int i) { return table[i & 15]; }
int main() {
	int sum;
	int i;
	int round;
	sum = 0;
	for (round = 0; round < 4000; round++) {
		for (i = 0; i < 16; i++) {
			sum += lookup(i);
		}
	}
	return sum & 255;
}`

func checkpointTestImage(t *testing.T) *program.Image {
	t.Helper()
	im, err := minic.Compile(checkpointTestProgram)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func checkpointTestConfig() core.Config {
	return core.Config{SkipInstructions: 300_000, MeasureInstructions: 800_000}
}

func canonical(t *testing.T, r *core.Report) []byte {
	t.Helper()
	b, err := core.CanonicalJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// interruptAndResume runs the test program with a policy that cancels
// the run right after the first snapshot written in the given phase,
// then resumes from that snapshot, returning the resumed report and
// the store.
func interruptAndResume(t *testing.T, im *program.Image, phase string) (*core.Report, *checkpoint.Store) {
	t.Helper()
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "abc123"

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cutAt uint64
	cfg := checkpointTestConfig()
	cfg.Checkpoint = &core.CheckpointPolicy{
		Store: store,
		Key:   key,
		Every: 1, // due at every chunk boundary
		Notify: func(ev core.CheckpointEvent) {
			if !ev.Resumed && ev.Phase == phase && cutAt == 0 {
				cutAt = ev.Retired
				cancel()
			}
		},
	}
	rep, err := core.Run(ctx, im, nil, "ckpt", cfg)
	if err == nil {
		t.Fatalf("interrupted %s-phase run did not error", phase)
	}
	if cutAt == 0 {
		t.Fatalf("no snapshot was written in the %s phase", phase)
	}
	if rep == nil || !rep.Truncated {
		t.Fatalf("interrupted run: report = %+v", rep)
	}
	if rep.Checkpoint == nil || rep.Checkpoint.LastRetired != cutAt {
		t.Fatalf("truncated report checkpoint status = %+v, want LastRetired=%d",
			rep.Checkpoint, cutAt)
	}

	var resumedAt uint64
	cfg2 := checkpointTestConfig()
	cfg2.Checkpoint = &core.CheckpointPolicy{
		Store:  store,
		Key:    key,
		Resume: true,
		Notify: func(ev core.CheckpointEvent) {
			if ev.Resumed {
				resumedAt = ev.Retired
			}
		},
	}
	rep2, err := core.Run(context.Background(), im, nil, "ckpt", cfg2)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if resumedAt != cutAt {
		t.Errorf("resumed at %d retired, want %d (the interruption point)", resumedAt, cutAt)
	}
	if store.Stats.Resumes.Value() != 1 {
		t.Errorf("Resumes = %d, want 1", store.Stats.Resumes.Value())
	}
	return rep2, store
}

func TestResumeMatchesUninterruptedRun(t *testing.T) {
	im := checkpointTestImage(t)
	straight, err := core.Run(context.Background(), im, nil, "ckpt", checkpointTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, straight)

	for _, phase := range []string{"skip", "measure"} {
		t.Run(phase, func(t *testing.T) {
			rep, store := interruptAndResume(t, im, phase)
			if got := canonical(t, rep); !bytes.Equal(got, want) {
				t.Errorf("resumed report diverged from the uninterrupted run (%d vs %d bytes)",
					len(got), len(want))
			}
			// A completed run leaves nothing to resume.
			if keys := store.Keys(); len(keys) != 0 {
				t.Errorf("snapshot survived a clean finish: %v", keys)
			}
		})
	}
}

// TestResumedRetireRateCountsOnlyThisProcess: a run resumed from a
// measure-phase snapshot spends its measure wall time on the part of
// the window left after the snapshot, so its retire rate divides only
// those instructions, not the whole window.
func TestResumedRetireRateCountsOnlyThisProcess(t *testing.T) {
	im := checkpointTestImage(t)
	rep, _ := interruptAndResume(t, im, "measure")
	cfg := checkpointTestConfig()
	measure := rep.Metrics.Phases.Find("measure")
	if measure == nil || measure.WallNS <= 0 {
		t.Fatalf("resumed run has no measure phase: %+v", rep.Metrics.Phases)
	}
	restore := rep.Metrics.Phases.Find("checkpoint.restore")
	if restore == nil {
		t.Fatal("resumed run has no checkpoint.restore phase")
	}
	// A measure-phase snapshot comes after the whole skip budget.
	resumedMeasured := restore.Attrs["retired"].(uint64) - cfg.SkipInstructions
	if rep.MeasuredInstructions != cfg.MeasureInstructions {
		t.Fatalf("resumed run measured %d, want %d", rep.MeasuredInstructions, cfg.MeasureInstructions)
	}
	secs := float64(measure.WallNS) / 1e9
	want := float64(cfg.MeasureInstructions-resumedMeasured) / secs / 1e6
	if got := rep.Metrics.RetireRateMIPS; math.Abs(got-want) > 1e-6*want {
		t.Errorf("RetireRateMIPS = %.3f, want %.3f: only the %d instructions measured after the resume took this measure span",
			got, want, cfg.MeasureInstructions-resumedMeasured)
	}
}

// TestCorruptSnapshotFallsBackToFreshRun flips a byte in the snapshot
// on disk: the resume must reject it, count it, delete it, and run
// fresh — same canonical bytes, no panic, no wrong report.
func TestCorruptSnapshotFallsBackToFreshRun(t *testing.T) {
	im := checkpointTestImage(t)
	straight, err := core.Run(context.Background(), im, nil, "ckpt", checkpointTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, straight)

	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "abc123"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := checkpointTestConfig()
	cfg.Checkpoint = &core.CheckpointPolicy{
		Store: store, Key: key, Every: 1,
		Notify: func(ev core.CheckpointEvent) { cancel() },
	}
	if _, err := core.Run(ctx, im, nil, "ckpt", cfg); err == nil {
		t.Fatal("interrupted run did not error")
	}

	path := filepath.Join(dir, key+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg2 := checkpointTestConfig()
	var resumed bool
	cfg2.Checkpoint = &core.CheckpointPolicy{
		Store: store, Key: key, Resume: true,
		Notify: func(ev core.CheckpointEvent) { resumed = resumed || ev.Resumed },
	}
	rep, err := core.Run(context.Background(), im, nil, "ckpt", cfg2)
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if resumed {
		t.Error("corrupt snapshot was resumed from")
	}
	if got := canonical(t, rep); !bytes.Equal(got, want) {
		t.Error("fallback run diverged from the uninterrupted run")
	}
	if store.Stats.Corrupt.Value() == 0 {
		t.Error("corrupt snapshot not counted")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Error("corrupt snapshot not deleted")
	}
}

// TestMismatchedPipelineRejectsResume restores a snapshot taken with
// every observer enabled into a run with the taint analysis disabled:
// the presence flags must reject it (the checkpoint key normally rules
// this out; the snapshot body is the second line of defense).
func TestMismatchedPipelineRejectsResume(t *testing.T) {
	im := checkpointTestImage(t)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "abc123"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := checkpointTestConfig()
	cfg.Checkpoint = &core.CheckpointPolicy{
		Store: store, Key: key, Every: 1,
		Notify: func(ev core.CheckpointEvent) { cancel() },
	}
	if _, err := core.Run(ctx, im, nil, "ckpt", cfg); err == nil {
		t.Fatal("interrupted run did not error")
	}

	cfg2 := checkpointTestConfig()
	cfg2.DisableTaint = true
	straight, err := core.Run(context.Background(), im, nil, "ckpt", cfg2)
	if err != nil {
		t.Fatal(err)
	}

	cfg3 := checkpointTestConfig()
	cfg3.DisableTaint = true
	var resumed bool
	cfg3.Checkpoint = &core.CheckpointPolicy{
		Store: store, Key: key, Resume: true,
		Notify: func(ev core.CheckpointEvent) { resumed = resumed || ev.Resumed },
	}
	rep, err := core.Run(context.Background(), im, nil, "ckpt", cfg3)
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if resumed {
		t.Error("mismatched snapshot was resumed from")
	}
	if store.Stats.ResumeRejected.Value() != 1 {
		t.Errorf("ResumeRejected = %d, want 1", store.Stats.ResumeRejected.Value())
	}
	if !bytes.Equal(canonical(t, rep), canonical(t, straight)) {
		t.Error("fallback run diverged from a fresh run with the same config")
	}
}
