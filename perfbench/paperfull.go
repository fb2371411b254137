package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/minic"
	"repro/internal/workloads"
)

// compileAll compiles the named programs from source and builds their
// inputs: the set-up every workload pays before its first simulation.
// (The run path itself reuses each program's compiled image.)
func compileAll(names []string, variant int) error {
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("unknown program %q", name)
		}
		if _, err := minic.Compile(w.Source); err != nil {
			return fmt.Errorf("compiling %s: %w", name, err)
		}
		_ = w.Input(variant)
	}
	return nil
}

func preparePaperFull(e *env) error { return e.buildReports(repro.Workloads()) }

type paperFull struct {
	e     *env
	cfg   repro.Config
	names []string
}

func setUpPaperFull(e *env) (instance, error) {
	names := repro.Workloads()
	if err := compileAll(names, e.variant); err != nil {
		return nil, err
	}
	return &paperFull{e: e, cfg: quickConfig(e.variant), names: names}, nil
}

// measure runs whole passes over the eight programs, one report after
// another, until the deadline.
func (p *paperFull) measure(deadline time.Time, rec *recorder, tr *tracer) error {
	rec.begin()
	defer rec.end()
	for pass := 0; time.Now().Before(deadline); pass++ {
		for _, name := range p.names {
			start := time.Now()
			rep, err := runWorkload(context.Background(), tr.start("repro.RunWorkload", 0), name, p.cfg)
			d := time.Since(start)
			rec.op(pass, start, d)
			if err == nil {
				rec.sim(pass, start, d, rep.Metrics.Sim.Retired)
			}
			rec.check("report "+name, p.e.checkReport(name, rep, err))
		}
	}
	return nil
}

func (p *paperFull) close() {}

// checkReport compares a quick-window report with its reference bytes
// and its counts with the pinned invariants.
func (e *env) checkReport(name string, rep *repro.Report, err error) error {
	if err != nil {
		return err
	}
	if rep.Truncated {
		return fmt.Errorf("truncated report (%s)", rep.TruncatedReason)
	}
	data, err := repro.CanonicalReportJSON(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, e.refs.report(name)) {
		return errMismatch
	}
	return compareCounts(countsOf(rep), e.inv[invKey("quick", name, e.variant)], true)
}
