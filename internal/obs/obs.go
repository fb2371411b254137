// Package obs is the instrumentation substrate for the reproduction
// pipeline: counters, gauges, fixed-bucket latency histograms, a
// hierarchical span API for phase timing, request traces, and the
// RunMetrics document that internal/core assembles after every run and
// cmd/instrep renders with -metrics. Logging is log/slog's.
//
// The package depends only on the standard library and is safe for
// concurrent use; every later performance PR is expected to report its
// numbers through it.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use and safe for concurrent increments.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter (test isolation and Registry.Reset; the
// serving paths never reset).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a metric that can go up and down. The zero value is ready
// to use and safe for concurrent updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of metrics. Lookups create the
// metric on first use, so call sites never need registration
// boilerplate. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gaugeFuncs map[string]func() int64
	histograms map[string]*Histogram
	health     HealthCounters
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.initLocked()
	return r
}

// initLocked (re)creates the metric maps. Caller holds r.mu except
// during construction.
func (r *Registry) initLocked() {
	r.counters = make(map[string]*Counter)
	r.gaugeFuncs = make(map[string]func() int64)
	r.histograms = make(map[string]*Histogram)
}

// Reset drops every metric and zeroes the health counters, returning
// the registry to its freshly constructed state. Tests use it to keep
// successive server instances (and the process-wide Default registry)
// from leaking counts into each other.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.initLocked()
	r.mu.Unlock()
	r.health.Reset()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named fixed-bucket histogram, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// HistogramValues returns a name-sorted snapshot of every histogram.
func (r *Registry) HistogramValues() []NamedHistogram {
	r.mu.Lock()
	hs := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hs[name] = h
	}
	r.mu.Unlock()
	out := make([]NamedHistogram, 0, len(hs))
	for name, h := range hs {
		out = append(out, NamedHistogram{Name: name, HistogramStats: h.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CounterValues returns a name-sorted snapshot of every counter.
func (r *Registry) CounterValues() []NamedValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NamedValue, 0, len(r.counters))
	for name, c := range r.counters {
		out = append(out, NamedValue{Name: name, Value: int64(c.Value())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GaugeFunc registers a callback gauge: f is evaluated at every
// GaugeValues snapshot, so live values (queue depths, sims in flight)
// appear in /metrics without the owner pushing updates. Registering a
// name again replaces the callback.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = f
}

// GaugeValues returns a name-sorted snapshot of every callback gauge.
// Callbacks run outside the registry lock (they typically take their
// owner's lock).
func (r *Registry) GaugeValues() []NamedValue {
	r.mu.Lock()
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for name, f := range r.gaugeFuncs {
		funcs[name] = f
	}
	r.mu.Unlock()
	out := make([]NamedValue, 0, len(funcs))
	for name, f := range funcs {
		out = append(out, NamedValue{Name: name, Value: f()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedValue is one registry entry in a snapshot.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NamedHistogram is one histogram entry in a registry snapshot.
type NamedHistogram struct {
	Name string `json:"name"`
	HistogramStats
}

// HealthCounters aggregates a run path's resilience counters: aborted
// runs by cause, recovered panics, and truncated (partial) reports.
// Every Registry owns one (Registry.Health), so a server instance's
// counts are scoped to its registry instead of leaking across daemon
// instances or tests; the package-level Health is the Default
// registry's set, which the CLI run path uses.
type HealthCounters struct {
	Cancels         Counter // runs aborted by context cancellation (e.g. SIGINT)
	Timeouts        Counter // runs aborted by the per-workload timeout
	Watchdogs       Counter // runs aborted by the deadman watchdog
	PanicsRecovered Counter // panics converted to per-workload errors
	TruncatedRuns   Counter // partial reports emitted instead of discarded runs
}

// Reset zeroes every health counter.
func (h *HealthCounters) Reset() {
	h.Cancels.Reset()
	h.Timeouts.Reset()
	h.Watchdogs.Reset()
	h.PanicsRecovered.Reset()
	h.TruncatedRuns.Reset()
}

// Values snapshots the nonzero health counters, name-sorted.
func (h *HealthCounters) Values() []NamedValue {
	all := []NamedValue{
		{Name: "panics_recovered", Value: int64(h.PanicsRecovered.Value())},
		{Name: "runs_canceled", Value: int64(h.Cancels.Value())},
		{Name: "runs_timed_out", Value: int64(h.Timeouts.Value())},
		{Name: "runs_truncated", Value: int64(h.TruncatedRuns.Value())},
		{Name: "watchdog_aborts", Value: int64(h.Watchdogs.Value())},
	}
	out := all[:0]
	for _, v := range all {
		if v.Value != 0 {
			out = append(out, v)
		}
	}
	return out
}

// Health returns the registry's resilience counter set.
func (r *Registry) Health() *HealthCounters { return &r.health }

// Default is the process-wide registry: the destination for run-path
// health counters when no registry is injected (the CLI). Servers
// construct their own registries so successive instances and tests
// stay isolated; tests touching Default should Reset it.
var Default = NewRegistry()

// Health is the Default registry's resilience counters — the shim that
// keeps the CLI run path's accounting working without explicit
// registry plumbing.
var Health = Default.Health()
