package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// The core ledger's window per program: each configuration fast-
// forwards ledgerSkip instructions (its observers attached, counting
// off) and then times ledgerMeasure; the fastest of ledgerReps is
// kept.
const (
	ledgerSkip    = 100_000
	ledgerMeasure = 200_000
	ledgerReps    = 2
)

// observers are the six observers beyond the census, in pipeline
// order (their metric prefixes are their Name()s).
var observers = []string{"taint", "local", "funcanal", "reuse", "vpred", "vprofile"}

// coreConfig is one configuration of the core ledger.
type coreConfig struct {
	name     string
	bare     bool // no pipeline: the machine alone
	interp   bool // the reference interpreter instead of the translation cache
	counting bool // the measurement window open (census and counting observers active)
	cfg      core.Config
}

// coreConfigs lists the ledger's layers bottom-up: the bare
// interpreted and translated cores, event batching with every observer
// off, the census, each observer alone on the census, and everything.
func coreConfigs() []coreConfig {
	none := core.Config{
		DisableTaint: true, DisableLocal: true, DisableFunc: true,
		DisableReuse: true, DisableVPred: true, DisableVProf: true,
	}
	cs := []coreConfig{
		{name: "interp", bare: true, interp: true},
		{name: "translated", bare: true},
		{name: "batch", cfg: none},
		{name: "repetition", cfg: none, counting: true},
	}
	for _, o := range observers {
		c := none
		switch o {
		case "taint":
			c.DisableTaint = false
		case "local":
			c.DisableLocal = false
		case "funcanal":
			c.DisableFunc = false
		case "reuse":
			c.DisableReuse = false
		case "vpred":
			c.DisableVPred = false
		case "vprofile":
			c.DisableVProf = false
		}
		cs = append(cs, coreConfig{name: o, cfg: c, counting: true})
	}
	return append(cs, coreConfig{name: "all", counting: true})
}

// coreSample is one timed ledger run.
type coreSample struct {
	measureNS  float64
	wholeNS    float64 // skip and measure: the window RunMetrics' sampled costs cover
	newNS      float64 // core.NewPipeline
	setupBytes uint64  // allocated by core.NewPipeline
	mallocs    uint64  // allocations during the measure window
	allocBytes uint64  // bytes allocated during the measure window
	collectNS  float64 // Pipeline.Collect
	costs      []obs.ObserverCost
}

// runCore runs one configuration on one program.
func runCore(name string, variant int, c coreConfig, measure uint64) (coreSample, error) {
	var s coreSample
	w, _ := workloads.ByName(name)
	im, err := w.Image()
	if err != nil {
		return s, err
	}
	m := cpu.New(im, w.Input(variant))
	m.NoTranslate = c.interp
	var p *core.Pipeline
	var before, after runtime.MemStats
	if !c.bare {
		runtime.ReadMemStats(&before)
		start := time.Now()
		p = core.NewPipeline(im, c.cfg)
		s.newNS = float64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&after)
		s.setupBytes = after.TotalAlloc - before.TotalAlloc
		m.Attach(p)
	}
	skipStart := time.Now()
	if _, err := m.Run(ledgerSkip); err != nil {
		return s, err
	}
	if p != nil && c.counting {
		p.SetCounting(true)
	}
	skipNS := float64(time.Since(skipStart).Nanoseconds())
	runtime.ReadMemStats(&before)
	start := time.Now()
	n, err := m.Run(measure)
	s.measureNS = float64(time.Since(start).Nanoseconds())
	s.wholeNS = skipNS + s.measureNS
	runtime.ReadMemStats(&after)
	if err != nil {
		return s, err
	}
	if n != measure {
		return s, fmt.Errorf("%s exited after %d of %d instructions", name, n, measure)
	}
	s.mallocs = after.Mallocs - before.Mallocs
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	if p != nil {
		start = time.Now()
		p.Collect(im, name)
		s.collectNS = float64(time.Since(start).Nanoseconds())
		s.costs = p.ObserverCosts()
	}
	return s, nil
}

// ledger fills the per-layer metrics of a traced run: the tracing
// overhead against the untraced half (plain), the metrics the traced
// measurement observed itself (rec.layers: serve-mixed's cache
// counts), and a probe of every other layer through its public
// functions. The probes are the same on every workload.
func ledger(e *env, plain, rec *recorder, res *result) error {
	small := e.opts.small
	measure, reps, iters := uint64(ledgerMeasure), ledgerReps, 200
	if small {
		measure, reps, iters = 20_000, 1, 10
	}
	names := repro.Workloads()
	// The probes check against every program's reference report.
	var missing []string
	for _, name := range names {
		if e.refs.report(name) == nil {
			missing = append(missing, name)
		}
	}
	if err := e.buildReports(missing); err != nil {
		return err
	}

	// Tracing overhead: the traced half's throughput against the
	// untraced half's.
	var off, on result
	off.Metrics, on.Metrics = map[string]metric{}, map[string]metric{}
	plain.endToEnd(&off)
	rec.endToEnd(&on)
	base := off.Metrics["ops_per_s"].Value
	res.set("trace.overhead_pct", "%", 100*(base-on.Metrics["ops_per_s"].Value)/base)

	// minic: compile every program from source.
	var compiles []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		for _, name := range names {
			w, _ := workloads.ByName(name)
			if _, err := minic.Compile(w.Source); err != nil {
				return err
			}
		}
		compiles = append(compiles, ms(time.Since(start))/float64(len(names)))
	}
	res.set("minic.compile_ms", "ms", median(compiles))

	if err := coreLedger(e, names, measure, reps, res); err != nil {
		return err
	}
	// Events per instruction of the golden window, counted on the
	// machine's event stream while the references were built.
	var events uint64
	for _, name := range names {
		events += e.refs.eventCount(name)
	}
	res.set("core.events_per_inst", "ratio", float64(events)/float64(uint64(len(names))*quickConfig(e.variant).MeasureInstructions))

	if err := serveProbes(e, iters, res); err != nil {
		return err
	}
	if err := sweepProbe(e, res); err != nil {
		return err
	}
	if err := jobProbe(e, res); err != nil {
		return err
	}
	for name, m := range rec.layers {
		res.set(name, m.Unit, m.Value)
	}
	return nil
}

// coreLedger times every core configuration on every program and sets
// the ns-per-instruction layers, their ratios to the translated core,
// the pipeline's set-up and allocation costs, and the sampled-share
// check.
func coreLedger(e *env, names []string, measure uint64, reps int, res *result) error {
	cfgs := coreConfigs()
	// best[c][p] is the fastest measure window of config c on program
	// p.
	// whole[c][p] and perRep[r][c] are the same over the whole
	// skip-and-measure window, for the sampled-share check.
	best := make([][]float64, len(cfgs))
	whole := make([][]float64, len(cfgs))
	perRep := make([][]float64, reps)
	sampled := map[string]float64{}
	var all []coreSample
	for c := range cfgs {
		best[c] = make([]float64, len(names))
		whole[c] = make([]float64, len(names))
	}
	for r := 0; r < reps; r++ {
		perRep[r] = make([]float64, len(cfgs))
		for p, name := range names {
			for c, cfg := range cfgs {
				s, err := runCore(name, e.variant, cfg, measure)
				if err != nil {
					return fmt.Errorf("core ledger %s/%s: %w", name, cfg.name, err)
				}
				if r == 0 || s.measureNS < best[c][p] {
					best[c][p] = s.measureNS
				}
				if r == 0 || s.wholeNS < whole[c][p] {
					whole[c][p] = s.wholeNS
				}
				perRep[r][c] += s.wholeNS
				if cfg.name == "all" {
					all = append(all, s)
					for _, oc := range s.costs {
						sampled[oc.Name] += float64(oc.EstimatedNS)
					}
				}
			}
		}
	}
	insts := float64(measure) * float64(len(names))
	nsPerInst := func(totals func(c int) float64) map[string]float64 {
		out := map[string]float64{}
		for c, cfg := range cfgs {
			out[cfg.name] = totals(c) / insts
		}
		return out
	}
	sum := func(xs []float64) float64 {
		var t float64
		for _, v := range xs {
			t += v
		}
		return t
	}
	ns := nsPerInst(func(c int) float64 { return sum(best[c]) })
	marginal := func(ns map[string]float64) map[string]float64 {
		m := map[string]float64{"repetition": ns["repetition"] - ns["batch"]}
		for _, o := range observers {
			m[o] = ns[o] - ns["repetition"]
		}
		return m
	}
	// Each layer's metric prefix and its added cost: the cores alone,
	// batching over the translated core, the census over batching,
	// each observer over the census, and the whole pipeline.
	type layer struct {
		prefix string
		ns     float64
	}
	layers := []layer{
		{"cpu.interp_", ns["interp"]},
		{"cpu.translated_", ns["translated"]},
		{"core.batch_", ns["batch"] - ns["translated"]},
		{"core.all_", ns["all"] - ns["translated"]},
	}
	mg := marginal(ns)
	for _, o := range append([]string{"repetition"}, observers...) {
		layers = append(layers, layer{o + ".", mg[o]})
	}
	for _, l := range layers {
		res.set(l.prefix+"ns_per_inst", "ns", l.ns)
		if l.prefix != "cpu.translated_" {
			res.set(l.prefix+"x_translated", "ratio", l.ns/ns["translated"])
		}
	}

	// Sampled-share validation: RunMetrics' 1/1024-sampled observer
	// shares against the measured marginal shares, both over the whole
	// skip-and-measure window the sampled costs cover. A gap wider
	// than the measured share's own rep-to-rep spread is flagged.
	shareOf := func(m map[string]float64) map[string]float64 {
		out := map[string]float64{}
		var total float64
		for _, v := range m {
			total += math.Max(v, 0)
		}
		for k, v := range m {
			out[k] = 100 * math.Max(v, 0) / total
		}
		return out
	}
	measured := shareOf(marginal(nsPerInst(func(c int) float64 { return sum(whole[c]) })))
	sampledShare := shareOf(sampled)
	lo, hi := map[string]float64{}, map[string]float64{}
	for r := range perRep {
		sh := shareOf(marginal(nsPerInst(func(c int) float64 { return perRep[r][c] })))
		for k, v := range sh {
			if r == 0 || v < lo[k] {
				lo[k] = v
			}
			if r == 0 || v > hi[k] {
				hi[k] = v
			}
		}
	}
	flagged := 0
	for _, o := range append([]string{"repetition"}, observers...) {
		gap := sampledShare[o] - measured[o]
		res.set(o+".share_gap_pct", "%", gap)
		spread := hi[o] - lo[o]
		if math.Abs(gap) > spread {
			flagged++
			res.note("share gap: %s sampled %.1f%% vs measured %.1f%% (gap %+.1f points, spread %.1f points)",
				o, sampledShare[o], measured[o], gap, spread)
		}
	}
	res.set("core.share_gap_flagged", "count", float64(flagged))

	// The full pipeline's fixed and per-instruction costs.
	var newNS, collectNS []float64
	var setupBytes, mallocs, allocBytes float64
	for _, s := range all {
		newNS = append(newNS, s.newNS)
		collectNS = append(collectNS, s.collectNS)
		setupBytes += float64(s.setupBytes)
		mallocs += float64(s.mallocs)
		allocBytes += float64(s.allocBytes)
	}
	n := float64(len(all))
	minst := float64(measure) / 1e6
	res.set("core.pipeline_new_us", "us", median(newNS)/1e3)
	res.set("core.collect_ms", "ms", median(collectNS)/1e6)
	res.set("core.setup_alloc_mb", "MB", setupBytes/n/1e6)
	res.set("core.measure_allocs_per_minst", "count", mallocs/n/minst)
	res.set("core.measure_alloc_mb_per_minst", "MB", allocBytes/n/1e6/minst)
	return nil
}

// serveProbes times the warm serving path layer by layer over the
// eight programs: the cache key, a cache hit, canonical JSON, table
// formatting, the handler on a recorder, and the loopback transport
// around it. Its cache counts (one miss per program, one hit per
// probe iteration) are fixed by construction; serve-mixed replaces
// them with its own.
func serveProbes(e *env, iters int, res *result) error {
	cfg := quickConfig(e.variant)
	cache, err := resultcache.New(0, "")
	if err != nil {
		return err
	}
	var names []string
	var keys []string
	var reps []*repro.Report
	for _, name := range repro.Workloads() {
		rep, err := decodeReport(e.refs.report(name))
		if err != nil {
			return err
		}
		w, _ := workloads.ByName(name)
		key := resultcache.Fingerprint(name, w.Source, cfg)
		if _, err := cache.GetOrCompute(context.Background(), key, func(context.Context) (*core.Report, error) {
			return rep, nil
		}); err != nil {
			return err
		}
		names, keys, reps = append(names, name), append(keys, key), append(reps, rep)
	}
	timeUS := func(f func(i int) error) (float64, error) {
		var us []float64
		for i := 0; i < iters; i++ {
			start := time.Now()
			if err := f(i); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
		return median(us), nil
	}
	fp, _ := timeUS(func(i int) error {
		w, _ := workloads.ByName(names[i%len(names)])
		resultcache.Fingerprint(w.Name, w.Source, cfg)
		return nil
	})
	res.set("resultcache.fingerprint_us", "us", fp)
	hit, err := timeUS(func(i int) error {
		_, err := cache.GetOrCompute(context.Background(), keys[i%len(keys)], func(context.Context) (*core.Report, error) {
			return nil, fmt.Errorf("cache probe missed")
		})
		return err
	})
	if err != nil {
		return err
	}
	res.set("resultcache.hit_us", "us", hit)
	st := &cache.Stats
	res.set("resultcache.hits", "count", float64(st.Hits.Value()))
	res.set("resultcache.misses", "count", float64(st.Misses.Value()))
	cj, _ := timeUS(func(i int) error {
		_, err := core.CanonicalJSON(reps[i%len(reps)])
		return err
	})
	res.set("core.canonical_json_us", "us", cj)
	experiments := repro.Experiments()
	fm, err := timeUS(func(i int) error {
		_, err := repro.Format(experiments[i%len(experiments)], reps[i%len(reps):i%len(reps)+1])
		return err
	})
	if err != nil {
		return err
	}
	res.set("report.format_us", "us", fm)

	// The handler on a recorder, then the same requests over loopback.
	s, err := startServer(cfg, cache, nil, nil)
	if err != nil {
		return err
	}
	defer s.close()
	h := s.srv.Handler()
	handler, err := timeUS(func(i int) error {
		name := names[i%len(names)]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/report/"+name, nil))
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), e.refs.report(name)) {
			return fmt.Errorf("handler probe: status %d or body differs", w.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	client, err := timeUS(func(i int) error {
		name := names[i%len(names)]
		body, status, err := s.get("/v1/report/"+name, nil)
		if err == nil && (status != http.StatusOK || !bytes.Equal(body, e.refs.report(name))) {
			err = fmt.Errorf("transport probe: status %d or body differs", status)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("reportserver.handler_us", "us", handler)
	res.set("reportserver.transport_us", "us", client-handler)
	return nil
}

// sweepProbe executes the golden sweep grid once, untraced, and sets
// the median cell latency and the engine's own share of the wall time.
func sweepProbe(e *env, res *result) error {
	sp, err := sweep.ParseSpec(sweepSpec(e.variant))
	if err != nil {
		return err
	}
	var cells []float64
	var cellSum time.Duration
	eng := &sweep.Engine{Parallel: 1, Metrics: obs.NewRegistry(),
		Run: func(ctx context.Context, name string, cfg core.Config) (*core.Report, error) {
			start := time.Now()
			rep, err := repro.RunWorkload(ctx, name, cfg)
			d := time.Since(start)
			cellSum += d
			cells = append(cells, ms(d))
			return rep, err
		}}
	start := time.Now()
	out, err := eng.Execute(context.Background(), sp)
	wall := time.Since(start)
	if err != nil {
		return fmt.Errorf("sweep probe: %w", err)
	}
	for _, c := range out.Cells {
		if !c.OK() {
			return fmt.Errorf("sweep probe: %s: %s", c.Workload, c.Error)
		}
	}
	res.set("sweep.cell_ms_p50", "ms", median(cells))
	res.set("sweep.engine_overhead_pct", "%", 100*float64(wall-cellSum)/float64(wall))
	return nil
}
