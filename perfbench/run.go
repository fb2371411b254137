package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs operations until the deadline, recording every
	// operation into rec; tr is nil when tracing is off.
	measure(deadline time.Time, rec *recorder, tr *tracer) error
	close()
}

// workloadDef names a workload and how to build it.
type workloadDef struct {
	name string
	why  string
	// prepare builds the references the outputs are checked against;
	// it is not part of set-up time.
	prepare func(e *env) error
	// setUp builds one measurable instance; it is timed as setup_s.
	setUp func(e *env) (instance, error)
}

var benches = []workloadDef{
	{
		name:    "paper-full",
		why:     "all eight programs, all seven observers: the paper's full report",
		prepare: preparePaperFull,
		setUp:   setUpPaperFull,
	},
	{
		name:    "sweep-grid",
		why:     "the 96-cell golden reuse-buffer sweep: short cells, fixed per-run cost",
		prepare: prepareSweepGrid,
		setUp:   setUpSweepGrid,
	},
	{
		name:    "serve-mixed",
		why:     "report server on loopback: cold misses, then warm cached reads",
		prepare: prepareServeMixed,
		setUp:   setUpServeMixed,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range benches {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range benches {
		if benches[i].name == name {
			return &benches[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// setupReps is how many times set-up runs in one invocation; setup_s
// is the median.
const setupReps = 25

// run executes one invocation: references, set-up, then the untraced
// measurement or the traced ledger.
func run(o options) (*result, error) {
	def, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(o)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := def.prepare(e); err != nil {
		return nil, fmt.Errorf("%s: building references: %w", def.name, err)
	}
	if o.corrupt {
		e.refs.corrupt()
	}

	var inst instance
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		inst, err = def.setUp(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { inst.close() }()

	res := &result{Metrics: map[string]metric{}}
	res.note("workload %s: %s", def.name, def.why)
	res.note("seed %d, input variant %d, %s", o.seed, e.variant, e.refs.source)
	seconds := time.Duration(o.seconds * float64(time.Second))
	var rec *recorder
	if !o.trace {
		rec = newRecorder()
		resetPeakRSS()
		if err := inst.measure(time.Now().Add(seconds), rec, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		rec.endToEnd(res)
		res.set("setup_s", "s", median(setups))
		res.set("peak_rss_mb", "MB", peakRSSMB())
		res.note("setup_s: median of %d set-ups", len(setups))
	} else {
		// The traced run measures the workload twice, tracing off and
		// on, so the difference is the tracing overhead; the ledger
		// probes then measure the layers.
		half := seconds / 2
		plain := newRecorder()
		runtime.GC()
		if err := inst.measure(time.Now().Add(half), plain, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		inst.close()
		if inst, err = def.setUp(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		rec = newRecorder()
		tr := newTracer()
		runtime.GC()
		if err := inst.measure(time.Now().Add(half), rec, tr); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		if err := ledger(e, plain, rec, res); err != nil {
			return nil, fmt.Errorf("%s: ledger: %w", def.name, err)
		}
		rec.merge(plain)
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", buildDir, def.name, o.seed)
		if err := tr.write(path); err != nil {
			res.note("trace not written: %v", err)
		} else {
			res.note("spans written to %s", path)
		}
		for _, line := range tr.selfTimes() {
			res.note("self %s", line)
		}
	}
	res.Attempted = rec.attempted + e.checks.attempted
	res.Failed = rec.failed + e.checks.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.notes = append(res.notes, e.checks.notes...)
	res.notes = append(res.notes, rec.notes...)
	return res, nil
}

// recorder accumulates one measurement's operations. Safe for
// concurrent use.
//
// Operations are grouped into rounds: a pass over the programs, a
// group of sweep cells, a slice of server time.
// Every timing metric is computed within each round and reported as
// the median over rounds, so a burst of contention from a neighbour on
// the shared host moves a few rounds, not the result.
type recorder struct {
	mu   sync.Mutex
	recs []opRec

	attempted, failed int
	notes             []string

	// The allocation window (alloc_mb_per_op) opens at begin and
	// closes at end.
	allocStart, allocStop uint64

	// layers are per-layer metrics a traced measurement observed
	// directly (serve-mixed's cache counts); the probes measure the
	// rest.
	layers map[string]metric
}

// opRec is one timed operation.
type opRec struct {
	round   int
	start   time.Time
	ms      float64
	sim     bool   // it simulated (sim_p50_ms, retire_mips) rather than being an op of the workload's unit
	retired uint64 // instructions it retired (sim only)
}

func newRecorder() *recorder { return &recorder{} }

// begin opens the allocation window.
func (r *recorder) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	r.allocStart = ms.TotalAlloc
	r.mu.Unlock()
}

// end closes the allocation window.
func (r *recorder) end() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	r.allocStop = ms.TotalAlloc
	r.mu.Unlock()
}

// op records one operation of the workload's unit that started at
// start and took d.
func (r *recorder) op(round int, start time.Time, d time.Duration) {
	r.mu.Lock()
	r.recs = append(r.recs, opRec{round: round, start: start, ms: ms(d)})
	r.mu.Unlock()
}

// sim records one operation that simulated, retiring instructions.
func (r *recorder) sim(round int, start time.Time, d time.Duration, retired uint64) {
	r.mu.Lock()
	r.recs = append(r.recs, opRec{round: round, start: start, ms: ms(d), sim: true, retired: retired})
	r.mu.Unlock()
}

// check counts one checked output; a non-nil err fails it.
func (r *recorder) check(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.notes) < 8 {
			r.notes = append(r.notes, fmt.Sprintf("FAILED %s: %v", what, err))
		}
		return false
	}
	return true
}

// merge folds another recorder's checks into r (the traced run's
// untraced half).
func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
}

// layer records a per-layer metric observed by a traced measurement.
func (r *recorder) layer(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.layers == nil {
		r.layers = map[string]metric{}
	}
	r.layers[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// round is one round's aggregate.
type round struct {
	ops, sims   []float64
	first, last time.Time // first op start, last op end
	wall        float64   // seconds from first start to the next round's first start
	retired     uint64
	simSec      float64
}

// rounds groups the operations by round, in round order.
func (r *recorder) rounds() []*round {
	r.mu.Lock()
	defer r.mu.Unlock()
	by := map[int]*round{}
	var ids []int
	for _, o := range r.recs {
		rd := by[o.round]
		if rd == nil {
			rd = &round{first: o.start}
			by[o.round] = rd
			ids = append(ids, o.round)
		}
		end := o.start.Add(time.Duration(o.ms * 1e6))
		if o.start.Before(rd.first) {
			rd.first = o.start
		}
		if end.After(rd.last) {
			rd.last = end
		}
		if o.sim {
			rd.sims = append(rd.sims, o.ms)
			rd.retired += o.retired
			rd.simSec += o.ms / 1e3
		} else {
			rd.ops = append(rd.ops, o.ms)
		}
	}
	sort.Ints(ids)
	out := make([]*round, len(ids))
	for i, id := range ids {
		out[i] = by[id]
	}
	for i, rd := range out {
		next := rd.last
		if i+1 < len(out) && out[i+1].first.After(rd.first) {
			next = out[i+1].first
		}
		rd.wall = next.Sub(rd.first).Seconds()
	}
	return out
}

// perRound returns the median over rounds of f, skipping rounds for
// which f reports no value.
func perRound(rs []*round, f func(*round) (float64, bool)) float64 {
	var vs []float64
	for _, rd := range rs {
		if v, ok := f(rd); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// endToEnd sets every end-to-end metric but setup_s and peak_rss_mb.
func (r *recorder) endToEnd(res *result) {
	rs := r.rounds()
	var nOps, nSims, nOpRounds, nSimRounds int
	var all []float64
	for _, rd := range rs {
		nOps += len(rd.ops)
		nSims += len(rd.sims)
		all = append(all, rd.ops...)
		if len(rd.ops) > 0 {
			nOpRounds++
		}
		if len(rd.sims) > 0 {
			nSimRounds++
		}
	}
	opQ := func(q float64) func(*round) (float64, bool) {
		return func(rd *round) (float64, bool) { return quantile(rd.ops, q), len(rd.ops) > 0 }
	}
	res.set("ops_per_s", "1/s", perRound(rs, func(rd *round) (float64, bool) {
		return float64(len(rd.ops)) / rd.wall, len(rd.ops) > 0 && rd.wall > 0
	}))
	res.set("op_p50_ms", "ms", perRound(rs, opQ(0.5)))
	res.set("op_p90_ms", "ms", perRound(rs, opQ(0.9)))
	res.set("sim_p50_ms", "ms", perRound(rs, func(rd *round) (float64, bool) {
		return quantile(rd.sims, 0.5), len(rd.sims) > 0
	}))
	res.set("retire_mips", "MIPS", perRound(rs, func(rd *round) (float64, bool) {
		return float64(rd.retired) / rd.simSec / 1e6, rd.simSec > 0
	}))
	res.set("alloc_mb_per_op", "MB", float64(r.allocStop-r.allocStart)/1e6/float64(nOps))
	res.note("ops: %d in %d rounds; all-sample p50 %.4g ms, p90 %.4g ms, p99 %.4g ms",
		nOps, nOpRounds, quantile(all, 0.5), quantile(all, 0.9), quantile(all, 0.99))
	res.note("simulating ops: %d in %d rounds", nSims, nSimRounds)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS returns freed memory to the OS and restarts the
// kernel's peak-RSS count from the current RSS, so peak_rss_mb covers
// the measurement alone, not the references built before it.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
