package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// sweepSpec is the golden sweep grid (testdata/golden/sweep): entries
// 1K/8K/64K × assoc 1/4 × lru/random × the eight programs, each cell
// skipping 10K and measuring 50K instructions — 96 cells.
func sweepSpec(variant int) []byte {
	v := ""
	if variant > 1 {
		v = fmt.Sprintf(`,"input_variant":%d`, variant)
	}
	return []byte(`{"entries":[1024,8192,65536],"assoc":[1,4],"policies":["lru","random"],"skip":10000,"measure":50000` + v + `}`)
}

// prepareSweepGrid loads the golden sweep artifacts, or builds them by
// executing the grid on the interpreted reference path.
func prepareSweepGrid(e *env) error {
	for _, name := range repro.Workloads() {
		if _, err := compileOnce(name); err != nil {
			return err
		}
		ev, err := eventCount(name, core.Config{SkipInstructions: 10_000, MeasureInstructions: 50_000, InputVariant: e.variant})
		if err != nil {
			return err
		}
		key := invKey("sweep", name, e.variant)
		e.checks.check(key+" events", compareCount("events", ev, e.inv[key].Events))
	}
	var csv, js []byte
	if e.variant == 1 {
		var err error
		if csv, err = os.ReadFile(filepath.Join(goldenDir, "sweep", "sweep.csv")); err != nil {
			return err
		}
		if js, err = os.ReadFile(filepath.Join(goldenDir, "sweep", "sweep.json")); err != nil {
			return err
		}
	} else {
		sp, err := sweep.ParseSpec(sweepSpec(e.variant))
		if err != nil {
			return err
		}
		eng := &sweep.Engine{
			Run:      repro.RunWorkload,
			Parallel: 2,
			Shape:    func(c *core.Config) { c.DisableTranslation = true },
			Metrics:  obs.NewRegistry(),
		}
		res, err := eng.Execute(context.Background(), sp)
		if err != nil {
			return err
		}
		csv = res.CSV()
		if js, err = res.JSON(); err != nil {
			return err
		}
	}
	e.refs.other["sweep.csv"] = csv
	e.refs.other["sweep.json"] = js
	return nil
}

type sweepGrid struct {
	e   *env
	sp  *sweep.Spec
	eng *sweep.Engine

	// The cell hook's view of the current measurement.
	mu    sync.Mutex
	rec   *recorder
	run   *span
	cells int // cells run so far in this measurement
}

// cellsPerRound groups consecutive cells into rounds: one config point
// over the eight programs.
const cellsPerRound = 8

func setUpSweepGrid(e *env) (instance, error) {
	if err := compileAll(repro.Workloads(), e.variant); err != nil {
		return nil, err
	}
	sp, err := sweep.ParseSpec(sweepSpec(e.variant))
	if err != nil {
		return nil, err
	}
	if _, err := sweep.Expand(sp); err != nil {
		return nil, err
	}
	g := &sweepGrid{e: e, sp: sp}
	g.eng = &sweep.Engine{Run: g.cell, Parallel: 1, Metrics: obs.NewRegistry()}
	return g, nil
}

// cell is the engine's RunFunc: one timed simulation, its counts
// checked against the pinned sweep-window invariants.
func (g *sweepGrid) cell(ctx context.Context, name string, cfg core.Config) (*core.Report, error) {
	g.mu.Lock()
	rec, parent, rnd := g.rec, g.run, g.cells/cellsPerRound
	g.cells++
	g.mu.Unlock()
	start := time.Now()
	rep, err := runWorkload(ctx, parent.child("sweep.cell"), name, cfg)
	d := time.Since(start)
	if err == nil {
		rec.op(rnd, start, d)
		rec.sim(rnd, start, d, rep.Metrics.Sim.Retired)
		key := invKey("sweep", name, g.e.variant)
		if cerr := compareCounts(countsOf(rep), g.e.inv[key], false); cerr != nil {
			rec.check(key+" counts", cerr)
		}
	}
	return rep, err
}

// measure executes the whole grid until the deadline and checks each
// artifact: every cell's CSV row, the aggregate rows, and the JSON.
func (g *sweepGrid) measure(deadline time.Time, rec *recorder, tr *tracer) error {
	wantCSV := g.e.refs.other["sweep.csv"]
	wantJSON := g.e.refs.other["sweep.json"]
	wantRows := strings.Split(string(wantCSV), "\n")
	g.cells = 0
	rec.begin()
	defer rec.end()
	for time.Now().Before(deadline) {
		run := tr.start("sweep.Engine.Execute", 0)
		g.mu.Lock()
		g.rec, g.run = rec, run
		g.mu.Unlock()
		res, err := g.eng.Execute(context.Background(), g.sp)
		run.end()
		if res == nil {
			return fmt.Errorf("sweep: %w", err)
		}
		csv := res.CSV()
		js, jerr := res.JSON()
		rows := strings.Split(string(csv), "\n")
		for i, c := range res.Cells {
			var cerr error
			switch {
			case !c.OK():
				cerr = fmt.Errorf("%s", c.Error)
			case i+1 >= len(rows) || i+1 >= len(wantRows) || rows[i+1] != wantRows[i+1]:
				cerr = errMismatch
			}
			rec.check(fmt.Sprintf("cell %d (%s)", i, c.Workload), cerr)
		}
		var aerr error
		switch {
		case jerr != nil:
			aerr = jerr
		case !bytes.Equal(csv, wantCSV) || !bytes.Equal(js, wantJSON):
			aerr = errMismatch
		}
		rec.check("sweep artifacts", aerr)
	}
	return nil
}

func (g *sweepGrid) close() {}
