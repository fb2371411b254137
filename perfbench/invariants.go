package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/resultcache"
	"repro/internal/workloads"
)

// writeInvariants recomputes invariants.json on the interpreted
// reference path: the counts of every program's quick window (and the
// job program's snapshot size) and sweep window, for every input
// variant a seed can select. Run it only when a change is meant to
// alter simulated statistics.
func writeInvariants() error {
	inv := map[string]counts{}
	type job struct {
		key  string
		name string
		cfg  repro.Config
		hits bool
	}
	var todo []job
	for v := 1; v <= 1+variants; v++ {
		for _, name := range repro.Workloads() {
			todo = append(todo, job{invKey("quick", name, v), name, quickConfig(v), true})
			sw := repro.Config{SkipInstructions: 10_000, MeasureInstructions: 50_000}
			if v > 1 {
				sw.InputVariant = v
			}
			todo = append(todo, job{invKey("sweep", name, v), name, sw, false})
		}
	}
	results := make([]counts, len(todo))
	errs := make([]error, len(todo))
	parallel(len(todo), func(i int) {
		results[i], errs[i] = invariantCounts(todo[i].name, todo[i].cfg, todo[i].hits)
	})
	for i, j := range todo {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", j.key, errs[i])
		}
		inv[j.key] = results[i]
	}
	data, err := json.MarshalIndent(inv, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(invariantsFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d entries to %s\n", len(inv), invariantsFile)
	return nil
}

// invariantCounts runs one window on the interpreted path and returns
// its counts; the job program's quick window also records the size of
// the snapshot the job probe takes.
func invariantCounts(name string, cfg repro.Config, hits bool) (counts, error) {
	ev, err := eventCount(name, cfg)
	if err != nil {
		return counts{}, err
	}
	cfg.DisableTranslation = true
	var snapshot uint64
	if hits && name == jobProgram {
		dir, err := os.MkdirTemp(buildDir, "inv-")
		if err != nil {
			return counts{}, err
		}
		defer os.RemoveAll(dir)
		store, err := checkpoint.Open(dir)
		if err != nil {
			return counts{}, err
		}
		w, _ := workloads.ByName(name)
		cfg.Checkpoint = &core.CheckpointPolicy{
			Store: store, Key: resultcache.Fingerprint(name, w.Source, cfg), Every: jobCheckpointEvery,
			Notify: func(ev core.CheckpointEvent) {
				if snapshot == 0 {
					snapshot = uint64(ev.Bytes)
				}
			},
		}
	}
	rep, err := repro.RunWorkload(context.Background(), name, cfg)
	if err != nil {
		return counts{}, err
	}
	if rep.MeasuredInstructions != cfg.MeasureInstructions {
		return counts{}, fmt.Errorf("program exited after %d of %d measured instructions",
			rep.MeasuredInstructions, cfg.MeasureInstructions)
	}
	c := countsOf(rep)
	if !hits {
		c.ReuseHits = 0
	}
	c.Events = ev
	c.SnapshotBytes = snapshot
	return c, nil
}
