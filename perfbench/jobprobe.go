package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

// jobProgram is the job probe's program: lisp carries the largest
// snapshot of the eight (its cons heap).
const jobProgram = "lisp"

// jobCheckpointEvery paces snapshots by retire count so exactly one
// lands mid-measure. Run boundaries fall at 100,000 (end of skip),
// 362,144 and 600,000 retired instructions; the first boundary at or
// past 300,000 is 362,144, and the next one due (662,144) lies past
// the window's end.
const jobCheckpointEvery = 300_000

// jobWait bounds every wait for a job event.
const jobWait = time.Minute

// jobProbeCycles is how many crash-and-resume cycles the job probe
// runs; each layer is the median over them.
const jobProbeCycles = 5

// jobProbe measures the checkpoint and job layers: each cycle runs a
// lisp job under a jobs.Manager to its one snapshot, drains the
// manager as the crash, opens a second manager on the same journal and
// checkpoint directories and waits for it to finish the job. Every
// cycle is a checked operation: the crashed manager must leave the job
// interrupted, the snapshot must have its pinned size, the job must
// report exactly one resume, and its report must equal the
// straight-through one byte for byte.
func jobProbe(e *env, res *result) error {
	n := jobProbeCycles
	if e.opts.small {
		n = 1
	}
	var write, restore, open, resume []float64
	var snapshot uint64
	for i := 0; i < n; i++ {
		c, err := jobCycle(e, filepath.Join(e.tmp, fmt.Sprintf("job-%d", i)))
		if !e.checks.check(fmt.Sprintf("job probe cycle %d", i), err) {
			continue
		}
		write, restore = append(write, c.writeMS), append(restore, c.restoreMS)
		open, resume = append(open, c.openMS), append(resume, ms(c.resume))
		snapshot = c.snapshot
	}
	if len(resume) == 0 {
		return errors.New("job probe: every cycle failed")
	}
	res.set("checkpoint.snapshot_bytes", "bytes", float64(snapshot))
	res.set("checkpoint.write_ms", "ms", median(write))
	res.set("checkpoint.restore_ms", "ms", median(restore))
	res.set("jobs.open_ms", "ms", median(open))
	res.set("jobs.resume_ms", "ms", median(resume))
	return nil
}

// cycleStats is what one crash-and-resume cycle measured.
type cycleStats struct {
	resume    time.Duration // second jobs.Open to job done
	snapshot  uint64        // snapshot bytes
	writeMS   float64       // the run's checkpoint.write phase
	restoreMS float64       // the resumed run's checkpoint.restore phase
	openMS    float64       // the second jobs.Open
}

// phaseMS returns the duration of a report's named run phase.
func phaseMS(rep *repro.Report, name string) float64 {
	if rep == nil || rep.Metrics == nil {
		return 0
	}
	if p := rep.Metrics.Phases.Find(name); p != nil {
		return float64(p.WallNS) / 1e6
	}
	return 0
}

// jobCycle runs one job to its snapshot in dir, drains the manager as
// the crash, opens a second manager on the same directories and waits
// for it to finish the job.
func jobCycle(e *env, dir string) (cycleStats, error) {
	var c cycleStats
	defer os.RemoveAll(dir)
	journal, ckdir := filepath.Join(dir, "journal"), filepath.Join(dir, "ckpt")
	want := e.inv[invKey("quick", jobProgram, e.variant)]
	spec := jobs.SpecFromConfig(jobProgram, quickConfig(e.variant))

	// First manager: run until the snapshot is written, then crash.
	var snap sync.Once
	snapped := make(chan core.CheckpointEvent, 1)
	runA := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		// The run's own context is canceled from inside the snapshot
		// notification: Drain closes the attempt context's Done channel
		// before it cancels that context's children, so a run that
		// resumed on Done alone could reach its next check uncanceled
		// and finish the window.
		runCtx, cancelRun := context.WithCancel(ctx)
		defer cancelRun()
		notify := cfg.Checkpoint.Notify
		cfg.Checkpoint.Notify = func(ev core.CheckpointEvent) {
			notify(ev)
			if !ev.Resumed {
				snap.Do(func() { snapped <- ev })
				<-ctx.Done() // hold the run at its snapshot until the crash
				cancelRun()
			}
		}
		rep, err := repro.RunWorkload(runCtx, name, cfg)
		c.writeMS = phaseMS(rep, "checkpoint.write")
		return rep, err
	}
	storeA, err := checkpoint.Open(ckdir)
	if err != nil {
		return c, err
	}
	mA, err := jobs.Open(jobs.Options{
		Dir: journal, Runner: &repro.Runner{Run: runA}, Checkpoints: storeA,
		CheckpointEvery: jobCheckpointEvery, Workers: 1, Registry: obs.NewRegistry(),
	})
	if err != nil {
		return c, err
	}
	mA.Start()
	doc, _, err := mA.Submit(spec)
	if err != nil {
		mA.Drain()
		return c, err
	}
	var ev core.CheckpointEvent
	select {
	case ev = <-snapped:
	case <-time.After(jobWait):
		mA.Drain()
		return c, errors.New("no snapshot written")
	}
	mA.Drain()
	if d, err := mA.Status(doc.ID); err != nil || d.State != jobs.StateInterrupted {
		return c, fmt.Errorf("crashed manager left the job %s, want %s (%v)", d.State, jobs.StateInterrupted, err)
	}
	c.snapshot = uint64(ev.Bytes)
	if err := compareCount("snapshot_bytes", c.snapshot, want.SnapshotBytes); err != nil {
		return c, err
	}

	// Second manager: replay the journal and finish from the snapshot.
	cache, err := resultcache.New(0, "")
	if err != nil {
		return c, err
	}
	var countsErr error
	runB := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		rep, err := repro.RunWorkload(ctx, name, cfg)
		c.restoreMS = phaseMS(rep, "checkpoint.restore")
		if err == nil {
			countsErr = compareCounts(countsOf(rep), want, true)
		}
		return rep, err
	}
	start := time.Now()
	storeB, err := checkpoint.Open(ckdir)
	if err != nil {
		return c, err
	}
	mB, err := jobs.Open(jobs.Options{
		Dir: journal, Runner: &repro.Runner{Cache: cache, Run: runB}, Checkpoints: storeB,
		CheckpointEvery: jobCheckpointEvery, Workers: 1, Registry: obs.NewRegistry(),
	})
	c.openMS = ms(time.Since(start))
	if err != nil {
		return c, err
	}
	defer mB.Drain()
	mB.Start()
	final, err := waitDone(mB, doc.ID)
	c.resume = time.Since(start)
	if err != nil {
		return c, err
	}
	if countsErr != nil {
		return c, fmt.Errorf("resumed run: %w", countsErr)
	}
	if final.Resumes != 1 {
		return c, fmt.Errorf("job resumed %d times, want 1 (checkpoint store: %v)", final.Resumes, storeB.StatValues())
	}
	data, err := mB.ReportJSON(context.Background(), doc.ID)
	if err != nil {
		return c, err
	}
	if !bytes.Equal(data, e.refs.report(jobProgram)) {
		return c, errMismatch
	}
	return c, nil
}

// waitDone polls the job until it reaches a terminal state.
func waitDone(m *jobs.Manager, id string) (jobs.Doc, error) {
	limit := time.Now().Add(jobWait)
	for {
		d, err := m.Status(id)
		if err != nil {
			return d, err
		}
		switch {
		case d.State == jobs.StateDone:
			return d, nil
		case d.State.Terminal():
			return d, fmt.Errorf("job %s: %s", d.State, d.Error)
		case time.Now().After(limit):
			return d, fmt.Errorf("job still %s after %v", d.State, jobWait)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
