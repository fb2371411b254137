// Package core wires the analyses together: it runs a program on the
// functional simulator with the repetition tracker, global (taint)
// analysis, function-level analysis, local analysis, and reuse buffer
// attached, and collects every table and figure of the paper into a
// Report.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/funcanal"
	"repro/internal/isa"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/repetition"
	"repro/internal/reuse"
	"repro/internal/taint"
	"repro/internal/vpred"
	"repro/internal/vprofile"
)

// Config controls one experiment run.
type Config struct {
	// SkipInstructions are executed before the analyses attach,
	// mirroring the paper's fast-forward past initialization.
	SkipInstructions uint64
	// MeasureInstructions bounds the analyzed window (0 = to
	// completion).
	MeasureInstructions uint64
	// MaxInstances is the per-static-instruction unique-instance
	// buffer limit (0 = the paper's 2000).
	MaxInstances int
	// ReuseEntries/ReuseAssoc size the reuse buffer (0 = the paper's
	// 8K, 4-way).
	ReuseEntries int
	ReuseAssoc   int
	// ReusePolicy selects the reuse buffer's replacement policy (the
	// zero value is reuse.LRU, the paper's; see internal/reuse). The
	// sweep engine varies it as a measurement axis.
	ReusePolicy reuse.Policy
	// VPredEntries sizes the value-predictor tables (0 = 8192).
	VPredEntries int
	// InputVariant selects the workload input data set (0 or 1 = the
	// standard inputs, 2+ = alternates) — the paper's input
	// sensitivity check (Section 3).
	InputVariant int
	// Analyses toggles; a zero Config enables everything.
	DisableTaint bool
	DisableLocal bool
	DisableFunc  bool
	DisableReuse bool
	DisableVPred bool
	DisableVProf bool

	// DisableTranslation forces the single-step interpreter instead of
	// the basic-block translation cache (see internal/cpu/translate.go).
	// Execution-shaping only — the two paths produce byte-identical
	// reports (held by the differential harness), so this field is
	// deliberately absent from MeasurementKey. Used by the differential
	// tests and the before/after benchmark comparison.
	DisableTranslation bool

	// Parallel bounds the worker pool repro.RunAll uses to run
	// workloads concurrently (0 = GOMAXPROCS). Individual core.Run
	// calls are single-threaded; this only matters to multi-workload
	// drivers.
	Parallel int

	// Timeout bounds one workload's wall-clock run time (0 = none).
	// An expired timeout truncates the run: Run returns a partial
	// Report flagged Truncated alongside a *TimeoutError.
	Timeout time.Duration

	// WatchdogInterval arms the deadman watchdog (0 = off): when the
	// run loop makes no retire progress for this long — a wedged step,
	// a runaway observer — the run aborts with a *WatchdogError
	// carrying a PC/phase diagnostic and a truncated partial Report.
	// The watchdog reads the progress every pipeline flush already
	// publishes (one per 256-event batch), so arming it leaves the run
	// on the translated path at full speed.
	WatchdogInterval time.Duration

	// Faults is the deterministic fault-injection plan consulted at
	// each fault point (nil = none); see internal/faultinject. Test
	// and harness use only.
	Faults *faultinject.Plan

	// Checkpoint enables crash-resumable runs (nil = off): snapshots
	// of the complete simulation state — machine, every observer,
	// phase bookkeeping — written at chunk boundaries per the policy
	// and resumed at startup when the policy asks. Deliberately absent
	// from MeasurementKey: a resumed run produces a canonical report
	// byte-identical to an uninterrupted one. See DESIGN.md §16.
	Checkpoint *CheckpointPolicy

	// Span, when set, is the enclosing run span (e.g. opened around
	// compilation by the caller); Run adds its phase children to it,
	// ends it, and snapshots it into the report's RunMetrics. When nil
	// Run opens its own root span.
	Span *obs.Span

	// Health receives the run's resilience accounting — truncations by
	// cause and recovered panics (nil = the process-wide obs.Health).
	// The report server injects its registry's set so daemon instances
	// and tests stay isolated.
	Health *obs.HealthCounters

	// Runs, when set, registers the run for live introspection while it
	// executes: RunRegistry.Snapshot lists in-flight runs with phase,
	// retired count, phase progress against its budget, and retire
	// rate (GET /debug/runs, CLI -progress).
	Runs *RunRegistry
}

// Size bounds Validate enforces on the measurement tables; the sweep
// spec's entries and associativity axes share them. They sit far above
// any real design-space study and far below an allocation that could
// take the process down.
const (
	MaxTableEntries = 1 << 20 // reuse-buffer and value-predictor entries
	MaxReuseAssoc   = 256
)

// Validate rejects a config no run can honor: table sizes outside
// their bounds (0 selects the paper's default), negative instance
// limits or input variants, and an unknown replacement policy. Run
// calls it before building anything, and every entry point that
// accepts a config from outside (CLI flags, job specs) calls it before
// starting, so an out-of-range size is an error rather than an
// out-of-memory crash.
func (c Config) Validate() error {
	switch {
	case c.ReuseEntries < 0 || c.ReuseEntries > MaxTableEntries:
		return fmt.Errorf("core: reuse entries %d out of range [0, %d]", c.ReuseEntries, MaxTableEntries)
	case c.ReuseAssoc < 0 || c.ReuseAssoc > MaxReuseAssoc:
		return fmt.Errorf("core: reuse associativity %d out of range [0, %d]", c.ReuseAssoc, MaxReuseAssoc)
	case c.VPredEntries < 0 || c.VPredEntries > MaxTableEntries:
		return fmt.Errorf("core: value-predictor entries %d out of range [0, %d]", c.VPredEntries, MaxTableEntries)
	case c.MaxInstances < 0:
		return fmt.Errorf("core: negative instance limit %d", c.MaxInstances)
	case c.InputVariant < 0:
		return fmt.Errorf("core: negative input variant %d", c.InputVariant)
	case !c.ReusePolicy.Valid():
		// Reject rather than silently fall back: a bogus policy would
		// otherwise measure LRU under a key claiming something else.
		return fmt.Errorf("core: invalid reuse replacement policy %v", c.ReusePolicy)
	}
	return nil
}

// sampleEvery is the attribution sampling period in *flushes*:
// one flush in every N is timed per observer pass and the totals are
// extrapolated over the whole event stream. A timed flush covers a
// full batch, so the sampled fraction of events is 1/N — the same
// coverage the pre-batch per-instruction sampler had — while the
// clock reads drop from two per event to two per N*batchSize events.
const sampleEvery = 1024

// batchSize is the event-batch length of the observer-major dispatch:
// big enough to amortize per-pass call overhead and keep each
// observer's code and branch-predictor state hot across a whole pass,
// small enough that the buffered events stay cache-resident.
const batchSize = 256

// itemInst/itemCall/itemRet tag the entries of a batch's interleave
// sequence; the order of tags reproduces the exact event order for
// observers that consume call/return events.
const (
	itemInst = iota
	itemCall
	itemRet
)

// batch buffers the event stream between flushes. Instructions,
// calls, and returns live in separate typed slices; kinds records
// their interleaving so a pass that consumes several event types
// replays them in original order.
type batch struct {
	evs   []cpu.Event
	vers  []bool // repetition verdicts, filled by the census pass
	calls []cpu.CallEvent
	rets  []cpu.RetEvent
	kinds []uint8
	timed bool // this flush is one of the sampled, per-stage timed ones
}

// reserve gives b its full-capacity buffers, the call and return
// buffers only when the pipeline consumes calls.
func (b *batch) reserve(calls bool) {
	if b.evs == nil {
		b.evs = make([]cpu.Event, 0, batchSize)
		b.vers = make([]bool, 0, batchSize)
		b.kinds = make([]uint8, 0, batchSize)
	}
	if calls && b.calls == nil {
		b.calls = make([]cpu.CallEvent, 0, batchSize)
		b.rets = make([]cpu.RetEvent, 0, batchSize)
	}
}

// reset empties b, keeping its buffers.
func (b *batch) reset() {
	b.evs = b.evs[:0]
	b.vers = b.vers[:0]
	b.calls = b.calls[:0]
	b.rets = b.rets[:0]
	b.kinds = b.kinds[:0]
}

// stage is one named observer pass of the batched pipeline; the name
// is used for per-observer cost attribution in RunMetrics.
type stage struct {
	name string
	run  func(b *batch)
	ns   time.Duration // summed pass time (exact, not sampled)
}

// Pipeline dispatches simulator events to the enabled analyses in the
// order the measurements require: the repetition verdict for each
// instruction feeds the category analyses and the reuse comparison.
//
// Dispatch is batched and observer-major: events buffer into a batch
// (a copy each — the simulator reuses its Event), and a flush runs
// each analysis over the whole batch in one pass. Every observer
// still sees the identical ordered event stream, so no statistic can
// change; what changes is that per-event virtual dispatch is replaced
// by one call per observer per batch and each observer's code stays
// hot for a few hundred events at a time. Flushes happen when the
// batch fills, when the counting window toggles (so every buffered
// event is observed under the window state it retired in), and at
// collection.
//
// Under Run, when a core is free, the stages after the census run on
// a helper goroutine (helper.go): a flush classifies the batch,
// publishes progress and hands the batch over a ring of ringDepth
// batches. Each observer always runs on the same goroutine in the
// same order, so the bytes do not change. The ring drains before the
// counting window toggles, before a snapshot and before a phase span
// ends; Collect stops the helper. A pipeline built with NewPipeline
// and driven directly stays synchronous, so the per-layer costs
// measured on it remain serial costs.
type Pipeline struct {
	Rep   *repetition.Tracker
	Taint *taint.Analysis
	Local *local.Analysis
	Funcs *funcanal.Analysis
	Reuse *reuse.Buffer
	VPred *vpred.Predictor
	VProf *vprofile.Profiler

	counting bool
	b        batch

	// st, when set, receives the retire count and next PC after every
	// flush: the run's single progress record (nil outside Run).
	st *runState

	// h is the helper running the stages, nil when they run inline.
	h *helper

	// Observer cost attribution: one flush in every sampleEvery is
	// timed per observer pass (samples counts the events those flushes
	// covered, totalEvs the whole stream, so the cost report
	// extrapolates); repNS covers the repetition tracker (which runs
	// before the stages to produce the verdicts).
	stages   []stage
	flushes  uint64
	samples  uint64
	totalEvs uint64
	repNS    time.Duration
}

// SetCounting opens (or closes) the measurement window. While closed,
// dataflow state (taint tags, local frames, call stacks) still
// propagates so the analyses are correct when the window opens, but no
// statistics accumulate and no instance buffers fill — the paper's
// skip-then-measure methodology.
func (p *Pipeline) SetCounting(on bool) {
	p.flush() // buffered events observe under the window they retired in
	p.drain()
	p.counting = on
	if p.Taint != nil {
		p.Taint.Counting = on
	}
	if p.Local != nil {
		p.Local.Counting = on
	}
	if p.Funcs != nil {
		p.Funcs.Counting = on
	}
}

// NewPipeline builds the analysis pipeline for an image.
func NewPipeline(im *program.Image, cfg Config) *Pipeline {
	p := &Pipeline{Rep: repetition.NewTracker()}
	// Pre-size the census's dense per-PC table to the text segment so
	// the hot path never grows it.
	p.Rep.SetTextBounds(program.TextBase, im.StaticInstructions())
	if cfg.MaxInstances > 0 {
		p.Rep.MaxInstances = cfg.MaxInstances
	}
	add := func(name string, run func(*batch)) {
		p.stages = append(p.stages, stage{name: name, run: run})
	}
	if !cfg.DisableTaint {
		// Dataflow analyses run even while the window is closed (their
		// Counting flags gate the statistics, not the propagation).
		p.Taint = taint.New(im)
		add(p.Taint.Name(), func(b *batch) {
			for i := range b.evs {
				p.Taint.Observe(&b.evs[i], b.vers[i])
			}
		})
	}
	if !cfg.DisableLocal {
		p.Local = local.New(im)
		add(p.Local.Name(), func(b *batch) {
			ei, ci, ri := 0, 0, 0
			for _, k := range b.kinds {
				switch k {
				case itemInst:
					p.Local.Observe(&b.evs[ei], b.vers[ei])
					ei++
				case itemCall:
					p.Local.OnCall(&b.calls[ci])
					ci++
				default:
					p.Local.OnReturn(&b.rets[ri])
					ri++
				}
			}
		})
	}
	if !cfg.DisableFunc {
		p.Funcs = funcanal.New(im)
		add(p.Funcs.Name(), func(b *batch) {
			ei, ci, ri := 0, 0, 0
			for _, k := range b.kinds {
				switch k {
				case itemInst:
					p.Funcs.Observe(&b.evs[ei], b.vers[ei])
					ei++
				case itemCall:
					p.Funcs.OnCall(&b.calls[ci])
					ci++
				default:
					p.Funcs.OnReturn(&b.rets[ri])
					ri++
				}
			}
		})
	}
	if !cfg.DisableReuse {
		p.Reuse = reuse.NewPolicy(cfg.ReuseEntries, cfg.ReuseAssoc, cfg.ReusePolicy)
		add(p.Reuse.Name(), func(b *batch) {
			if !p.counting {
				return
			}
			for i := range b.evs {
				p.Reuse.Observe(&b.evs[i], b.vers[i])
			}
		})
	}
	if !cfg.DisableVPred {
		p.VPred = vpred.New(cfg.VPredEntries)
		add(p.VPred.Name(), func(b *batch) {
			if !p.counting {
				return
			}
			for i := range b.evs {
				p.VPred.Observe(&b.evs[i])
			}
		})
	}
	if !cfg.DisableVProf {
		p.VProf = vprofile.New()
		p.VProf.SetTextBounds(program.TextBase, im.StaticInstructions())
		add(p.VProf.Name(), func(b *batch) {
			if !p.counting {
				return
			}
			for i := range b.evs {
				p.VProf.Observe(&b.evs[i])
			}
		})
	}
	p.b.reserve(p.WantsCalls())
	return p
}

// WantsCalls reports whether the pipeline consumes call and return
// events: only the local and function analyses do. The machine emits
// none to a pipeline that declines them.
func (p *Pipeline) WantsCalls() bool {
	return p.Local != nil || p.Funcs != nil
}

// NextSlot implements cpu.EventSink: the machine builds the next
// event directly in the batch's tail slot, skipping a build-then-copy
// per instruction. The slot is only committed when OnInst receives
// the same pointer back; an abandoned slot (faulting instruction) is
// reused. The batch is allocated at full capacity and flushed before
// it fills, so the tail slot always exists.
func (p *Pipeline) NextSlot() *cpu.Event {
	return &p.b.evs[:cap(p.b.evs)][len(p.b.evs)]
}

// OnInst implements cpu.Observer: commit the slot the machine built in
// place (when it used NextSlot) or buffer a copy (the simulator reuses
// its own Event otherwise), and flush when the batch fills.
func (p *Pipeline) OnInst(ev *cpu.Event) {
	if n := len(p.b.evs); n < cap(p.b.evs) && ev == &p.b.evs[:n+1][n] {
		p.b.evs = p.b.evs[:n+1]
	} else {
		p.b.evs = append(p.b.evs, *ev)
	}
	p.b.vers = append(p.b.vers, false)
	p.b.kinds = append(p.b.kinds, itemInst)
	if len(p.b.kinds) >= batchSize {
		p.flush()
	}
}

// flush runs every enabled analysis over the buffered batch, in the
// order the per-event dispatch used: the census pass first (producing
// the verdict for each instruction), then each stage — inline, or on
// the helper when the pipeline has one.
func (p *Pipeline) flush() {
	b := &p.b
	if len(b.kinds) == 0 {
		return
	}
	b.timed = p.flushes%sampleEvery == 0
	p.flushes++
	p.totalEvs += uint64(len(b.evs))
	var now time.Time
	if b.timed {
		p.samples += uint64(len(b.evs))
		now = time.Now()
	}
	if p.counting {
		for i := range b.evs {
			b.vers[i] = p.Rep.Observe(&b.evs[i])
		}
	}
	if b.timed {
		p.repNS += time.Since(now)
	}
	if n := len(b.evs); p.st != nil && n > 0 {
		last := &b.evs[n-1]
		p.st.publish(last.Index+1, last.NextPC)
	}
	if p.h != nil {
		p.handoff()
		return
	}
	p.runStages(b)
	b.reset()
}

// runStages runs every stage over a classified batch, timing each pass
// when the batch is a sampled one.
func (p *Pipeline) runStages(b *batch) {
	var now time.Time
	if b.timed {
		now = time.Now()
	}
	for i := range p.stages {
		p.stages[i].run(b)
		if b.timed {
			t := time.Now()
			p.stages[i].ns += t.Sub(now)
			now = t
		}
	}
}

// ObserverCosts reports the per-observer pass times, extrapolated
// from the timed flushes over the whole event stream (EstimatedNS =
// SampledNS scaled by totalEvents/sampledEvents).
func (p *Pipeline) ObserverCosts() []obs.ObserverCost {
	if p.samples == 0 {
		return nil
	}
	out := []obs.ObserverCost{{Name: p.Rep.Name(), SampledNS: p.repNS.Nanoseconds()}}
	for i := range p.stages {
		out = append(out, obs.ObserverCost{
			Name:      p.stages[i].name,
			SampledNS: p.stages[i].ns.Nanoseconds(),
		})
	}
	scale := float64(p.totalEvs) / float64(p.samples)
	var total int64
	for i := range out {
		out[i].Samples = p.samples
		out[i].EstimatedNS = int64(float64(out[i].SampledNS) * scale)
		total += out[i].EstimatedNS
	}
	if total > 0 {
		for i := range out {
			out[i].SharePct = 100 * float64(out[i].EstimatedNS) / float64(total)
		}
	}
	return out
}

// OnCall implements cpu.CallObserver: the call is copied into the
// batch in event order (the CallEvent already carries the argument
// values read at call time, so deferring its observation cannot
// change them). The machine only calls it when WantsCalls.
func (p *Pipeline) OnCall(ev *cpu.CallEvent) {
	p.b.calls = append(p.b.calls, *ev)
	p.b.kinds = append(p.b.kinds, itemCall)
	if len(p.b.kinds) >= batchSize {
		p.flush()
	}
}

// OnReturn implements cpu.CallObserver.
func (p *Pipeline) OnReturn(ev *cpu.RetEvent) {
	p.b.rets = append(p.b.rets, *ev)
	p.b.kinds = append(p.b.kinds, itemRet)
	if len(p.b.kinds) >= batchSize {
		p.flush()
	}
}

// CoverageTargets are the repetition-coverage percentages reported for
// the Figure 1 and Figure 4 curves.
var CoverageTargets = []float64{50, 60, 70, 80, 90, 95, 99, 100}

// Report collects every measurement of the paper for one benchmark.
type Report struct {
	Benchmark string

	// Run accounting.
	SkippedInstructions  uint64
	MeasuredInstructions uint64
	ProgramExited        bool
	ExitCode             int32

	// Truncated marks a partial report: the run was cut short
	// mid-window (cancellation, timeout, watchdog, fault, or recovered
	// panic) and every statistic covers only the instructions measured
	// before the cut. TruncatedReason is one of the core.Reason*
	// constants; the error returned alongside the report carries the
	// full diagnostic.
	Truncated       bool   `json:",omitempty"`
	TruncatedReason string `json:",omitempty"`

	// Checkpoint summarizes resumable state on truncated runs: the
	// retire count and age of the newest snapshot a resume would pick
	// up (nil on clean runs and when no checkpoint policy was active).
	Checkpoint *CheckpointStatus `json:",omitempty"`

	// Table 1.
	DynTotal        uint64
	DynRepeatedPct  float64
	StaticTotal     int
	StaticExecuted  int
	StaticExecPct   float64
	StaticRepeatPct float64 // % of executed static insts that repeat

	// Figure 1: % of repeated static instructions covering each of
	// CoverageTargets percent of repetition.
	Fig1Targets []float64
	Fig1        []float64

	// Figure 3 buckets.
	Fig3 [5]float64

	// Table 2.
	UniqueInstances uint64
	AvgRepeats      float64

	// Figure 4.
	Fig4Targets []float64
	Fig4        []float64

	// Table 3 (nil-safe zero value when disabled).
	Table3 taint.Result

	// Table 4.
	Table4 funcanal.Table4

	// Tables 5-7.
	Local local.Result

	// Table 8.
	Table8 funcanal.Table8

	// Figure 5: coverage by top 1..5 argument sets.
	Fig5 []float64

	// Table 9.
	Table9         []local.PERow
	Table9Coverage float64

	// Figure 6: coverage by top 1..5 load values.
	Fig6 []float64

	// Table 10.
	ReusePctAll      float64
	ReusePctRepeated float64

	// Extension: per-instruction-class census (the typed total
	// analysis Section 2 mentions but the paper omits).
	TypeOverallPct    [repetition.NumClasses]float64
	TypePropensityPct [repetition.NumClasses]float64

	// Extension: value-prediction accuracy (Section 7's other
	// exploitation mechanism).
	VPred vpred.Result

	// Extension: per-function profile — self instruction counts with
	// per-function repetition (drill-down behind Tables 4/9).
	Profile []funcanal.FuncRow

	// Extension: Calder-style output-value invariance (the paper's
	// reference [3], contrasted with input+output repetition).
	VProfile vprofile.Result

	// Metrics is the run's observability document: phase wall times,
	// simulator counters, retire rate, and per-observer attributed
	// cost (see internal/obs). Wall-clock values vary run to run.
	Metrics *obs.RunMetrics `json:"RunMetrics,omitempty"`
}

// Collect gathers the report after a run, stopping the helper first.
func (p *Pipeline) Collect(im *program.Image, name string) *Report {
	p.flush() // observe any tail shorter than a full batch
	p.drain()
	p.stopHelper()
	r := &Report{
		Benchmark:   name,
		Fig1Targets: CoverageTargets,
		Fig4Targets: CoverageTargets,
	}
	t := p.Rep
	r.DynTotal = t.DynamicInstructions()
	r.DynRepeatedPct = t.RepeatedPercent()
	r.StaticTotal = im.StaticInstructions()
	r.StaticExecuted = t.StaticExecuted()
	if r.StaticTotal > 0 {
		r.StaticExecPct = 100 * float64(r.StaticExecuted) / float64(r.StaticTotal)
	}
	if r.StaticExecuted > 0 {
		r.StaticRepeatPct = 100 * float64(t.StaticRepeated()) / float64(r.StaticExecuted)
	}
	r.Fig1 = t.StaticCoverage(CoverageTargets)
	r.Fig3 = t.InstanceBuckets().Percents()
	r.UniqueInstances, r.AvgRepeats = t.UniqueRepeatableInstances()
	r.Fig4 = t.InstanceCoverage(CoverageTargets)

	if p.Taint != nil {
		r.Table3 = p.Taint.Result()
	}
	if p.Funcs != nil {
		r.Table4 = p.Funcs.Table4()
		r.Table8 = p.Funcs.Table8()
		r.Fig5 = p.Funcs.TopArgSetCoverage(5)
		r.Profile = p.Funcs.PerFunction()
	}
	if p.Local != nil {
		r.Local = p.Local.Result()
		r.Table9, r.Table9Coverage = p.Local.TopPrologueEpilogue(5)
		r.Fig6 = p.Local.TopLoadValueCoverage(5)
	}
	if p.Reuse != nil {
		// Both Table 10 percentages derive from the buffer's own
		// counters, all fed by the single Observe dispatch path.
		r.ReusePctAll = p.Reuse.HitPercent()
		rep := t.RepeatedInstructions()
		if rep > 0 {
			r.ReusePctRepeated = 100 * float64(p.Reuse.HitsRepeated()) / float64(rep)
		}
	}
	r.TypeOverallPct = t.Types.OverallPct()
	r.TypePropensityPct = t.Types.PropensityPct()
	if p.VPred != nil {
		r.VPred = p.VPred.Result(t.DynamicInstructions())
	}
	if p.VProf != nil {
		r.VProfile = p.VProf.Result()
	}
	return r
}

// progressChunk is how many instructions run between run-loop
// checkpoints: cancellation checks, checkpoint opportunities, and a
// progress publication covering the events still buffered.
const progressChunk = 1 << 18

// runPhase executes up to max instructions (0 = to completion) in
// chunks, recording the phase and its budget in st, checking
// cancellation, publishing progress, and offering ck a snapshot
// opportunity at every chunk boundary. Between boundaries the
// pipeline's flushes keep st current. On cancellation it returns the
// context's cause (the watchdog, timeout, or caller-supplied
// cancellation error).
func runPhase(ctx context.Context, st *runState, ck *ckState, m *cpu.Machine, max uint64, phase string) (uint64, error) {
	st.setPhase(phase, max)
	var done uint64
	var err error
	for !m.Halted && err == nil && (max == 0 || done < max) {
		if ctx.Err() != nil {
			err = cause(ctx)
			break
		}
		chunk := uint64(progressChunk)
		if max > 0 && max-done < chunk {
			chunk = max - done
		}
		var n uint64
		n, err = m.Run(chunk)
		done += n
		// Up to a batch of events may still be buffered unflushed.
		st.publish(m.Count, m.PC)
		if err == nil && !m.Halted {
			// Snapshot only consistent state: never after a fault
			// (which may have cut an instruction short) and never once
			// the program completed (the snapshot is removed on a
			// clean finish anyway).
			ck.atBoundary(phase, m.Count, done)
		}
	}
	return done, err
}

// newMachine builds the machine and analysis pipeline for one run: the
// pipeline publishes into st, and the only step hook installed is the
// fault plan's (none without one), so an ordinary run — watchdog
// armed or not — executes on the translated path. The pipeline gets a
// helper goroutine when a core is free; the caller must stop it
// (Collect or stopHelper).
func newMachine(ctx context.Context, im *program.Image, input []byte, name string, cfg Config, st *runState) (*cpu.Machine, *Pipeline) {
	m := cpu.New(im, input)
	m.NoTranslate = cfg.DisableTranslation
	m.Hook = cfg.Faults.StepHook(ctx, name)
	p := NewPipeline(im, cfg)
	p.st = st
	m.Attach(p)
	if o := cfg.Faults.Observer(name); o != nil {
		m.Attach(o)
	}
	p.startHelper()
	if testHookPipeline != nil {
		testHookPipeline(p)
	}
	return m, p
}

// Run executes a full experiment: fast-forward, attach the pipeline,
// measure, and collect the report with its run metrics. If cfg.Span
// is set Run treats it as the enclosing run span (adding phase
// children and ending it); otherwise it opens its own.
//
// Run degrades instead of discarding: when the run is cut short —
// ctx canceled, cfg.Timeout expired, the watchdog fired, the
// simulator faulted, or a panic was recovered — it returns a partial
// Report flagged Truncated (statistics cover the instructions
// measured so far, metrics included) alongside the error describing
// the cut. Only a nil ctx is replaced with context.Background().
func Run(ctx context.Context, im *program.Image, input []byte, name string, cfg Config) (rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := cfg.Span
	if root == nil {
		root = obs.StartSpan("run")
	}
	health := cfg.Health
	if health == nil {
		health = obs.Health
	}

	// Per-run cancel-cause plumbing: the watchdog and timeout record
	// the precise abort reason, which runPhase surfaces via
	// context.Cause.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	if cfg.Timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeoutCause(ctx, cfg.Timeout,
			&TimeoutError{Benchmark: name, Limit: cfg.Timeout})
		defer cancelTimeout()
	}

	busySims.Add(1)
	defer busySims.Add(-1)
	load := root.StartChild("load")
	st := newRunState(name)
	st.traceID = obs.TraceIDFrom(ctx)
	m, p := newMachine(ctx, im, input, name, cfg, st)
	// Runs last: every exit, panics included, retires the helper.
	defer func() { p.stopHelper() }()

	// Resume before any instruction runs: restore machine and pipeline
	// from the newest snapshot under the policy's key. A snapshot that
	// fails restore-time validation is counted, deleted, and ignored —
	// the freshly built state is discarded (restore may have partially
	// mutated it) and the run starts over.
	var ck *ckState
	var resume *resumeState
	if cp := cfg.Checkpoint; cp.enabled() {
		ck = &ckState{policy: cp, name: name, span: root, m: m, p: p, lastAt: time.Now()}
		if cp.Resume {
			if body, ok := cp.Store.Load(cp.Key); ok {
				sp := root.StartChild("checkpoint.restore")
				rs, rerr := restoreBody(body, ck)
				if rerr == nil && !resumableInto(rs, cfg) {
					rerr = checkpoint.ErrMalformed
				}
				if rerr != nil {
					sp.SetAttr("error", rerr.Error())
					cp.Store.RejectResume(cp.Key)
					p.stopHelper()
					m, p = newMachine(ctx, im, input, name, cfg, st)
					ck.m, ck.p = m, p
				} else {
					sp.SetAttr("retired", rs.retired)
					sp.SetAttr("phase", rs.phase)
					resume = &rs
					ck.baseSkipped, ck.baseMeasured = rs.skipped, rs.measured
					ck.lastRetired = rs.retired
					cp.Store.Stats.Resumes.Inc()
					if cp.Notify != nil {
						cp.Notify(CheckpointEvent{
							Benchmark: name, Resumed: true,
							Retired: rs.retired, Phase: rs.phase,
						})
					}
				}
				sp.End()
			}
		}
	}
	if resume != nil {
		st.publish(m.Count, m.PC)
	}
	if cfg.WatchdogInterval > 0 {
		defer watch(ctx, cancel, st, cfg.WatchdogInterval)()
	}
	if cfg.Runs != nil {
		defer cfg.Runs.remove(cfg.Runs.add(st))
	}
	if ck != nil {
		ck.st = st
	}
	load.End()

	// resumedMeasured is the part of measured a previous process
	// measured: it took none of this run's measure wall time.
	var skipped, measured, resumedMeasured uint64
	if resume != nil {
		skipped, measured = resume.skipped, resume.measured
		resumedMeasured = measured
	}
	var measure *obs.Span

	// finish assembles the final — possibly partial — report: on a
	// truncated run the collected statistics cover the instructions
	// measured so far and the report travels alongside the error.
	finish := func(runErr error) *Report {
		if measure != nil {
			p.drain() // the helper's share of the window is measure time
			measure.End()
		}
		collect := root.StartChild("collect")
		r := p.Collect(im, name)
		r.SkippedInstructions = skipped
		r.MeasuredInstructions = measured
		r.ProgramExited = m.Halted
		r.ExitCode = m.ExitCode
		collect.End()
		root.End()
		var measureWall time.Duration
		if measure != nil {
			measureWall = measure.Duration()
		}
		r.Metrics = runMetrics(root, m, p, name, measured-resumedMeasured, measureWall)
		r.Metrics.TraceID = st.traceID
		if runErr != nil {
			r.Truncated = true
			r.TruncatedReason = TruncationReason(runErr)
			recordTruncation(health, r.TruncatedReason)
			r.Checkpoint = ck.status()
		}
		return r
	}

	// Panic isolation: a panic in the simulator, an observer, or
	// collection becomes a *PanicError with the partial report still
	// assembled when the pipeline state allows it.
	defer func() {
		if pv := recover(); pv != nil {
			var perr *PanicError
			if hp, ok := pv.(*helperPanic); ok {
				perr = &PanicError{Benchmark: name, Value: hp.value, Stack: hp.stack}
			} else {
				perr = NewPanicError(name, pv)
			}
			health.PanicsRecovered.Inc()
			rep, err = safeFinish(finish, perr), perr
		}
	}()

	if remaining := cfg.SkipInstructions - skipped; cfg.SkipInstructions > 0 &&
		(resume == nil || resume.phase == "skip") && remaining > 0 {
		// Warmup: the pipeline propagates dataflow state (so tags
		// from initialization-time input reads survive) but counts
		// nothing. A resumed run finishes the remaining budget only —
		// max=0 would mean run-to-completion, hence the guard.
		skip := root.StartChild("skip")
		done, serr := runPhase(ctx, st, ck, m, remaining, "skip")
		skipped += done
		p.drain()
		skip.End()
		if serr != nil {
			return finish(serr), fmt.Errorf("core: warmup: %w", serr)
		}
	}
	if ck != nil {
		ck.baseSkipped = skipped
	}

	p.SetCounting(true)
	measure = root.StartChild("measure")
	measureMax := cfg.MeasureInstructions
	if cfg.MeasureInstructions > 0 {
		measureMax = cfg.MeasureInstructions - measured
	}
	if measureMax > 0 || cfg.MeasureInstructions == 0 {
		done, merr := runPhase(ctx, st, ck, m, measureMax, "measure")
		measured += done
		if merr != nil {
			return finish(merr), fmt.Errorf("core: measure: %w", merr)
		}
	}
	if ck != nil {
		// A completed run can't be "resumed": drop its snapshot.
		ck.policy.Store.Remove(ck.policy.Key)
	}
	return finish(nil), nil
}

// resumableInto checks a restored snapshot's phase bookkeeping against
// the config it is resuming under: the checkpoint key already pins the
// measurement config, so a mismatch here means a forged or misfiled
// snapshot and rejects the resume.
func resumableInto(rs resumeState, cfg Config) bool {
	if rs.phase == "skip" {
		return cfg.SkipInstructions > 0 && rs.skipped <= cfg.SkipInstructions && rs.measured == 0
	}
	if rs.skipped != cfg.SkipInstructions {
		// Measure-phase snapshots only exist after the whole skip
		// budget ran.
		return false
	}
	return cfg.MeasureInstructions == 0 || rs.measured <= cfg.MeasureInstructions
}

// safeFinish runs finish under its own recover: after a mid-update
// panic the pipeline state may be inconsistent enough that collection
// panics too, in which case the partial report is dropped and only
// the error survives.
func safeFinish(finish func(error) *Report, perr error) (rep *Report) {
	defer func() {
		if recover() != nil {
			rep = nil
		}
	}()
	return finish(perr)
}

// runMetrics assembles the observability document for one run;
// measured counts only the instructions this process measured, during
// measureWall.
func runMetrics(root *obs.Span, m *cpu.Machine, p *Pipeline, name string, measured uint64, measureWall time.Duration) *obs.RunMetrics {
	rm := &obs.RunMetrics{
		Benchmark:           name,
		Phases:              root.Tree(),
		ObserverSampleEvery: sampleEvery,
		Observers:           p.ObserverCosts(),
		Sim: obs.SimCounters{
			Retired:       m.Count,
			Loads:         m.Stats.Loads,
			Stores:        m.Stats.Stores,
			Branches:      m.Stats.Branches,
			BranchesTaken: m.Stats.BranchesTaken,
			Syscalls:      m.Stats.Syscalls,
		},
	}
	for k, n := range m.Stats.Kinds {
		if n > 0 {
			rm.Sim.ClassMix = append(rm.Sim.ClassMix, obs.ClassCount{
				Class: isa.Kind(k).String(), Count: n,
			})
		}
	}
	if secs := measureWall.Seconds(); secs > 0 {
		rm.RetireRateMIPS = float64(measured) / secs / 1e6
	}
	return rm
}
