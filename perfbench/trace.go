package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
)

// tracer records spans in memory around the benchmark's calls into
// each layer and writes them out when the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one finished span. Trace groups the spans of one
// operation (the root span's ID); Parent is 0 for a root.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span.
type span struct {
	t     *tracer
	id    int
	trace int
	start time.Time
}

// start opens a root span (parent 0) or a child of the span with the
// given ID.
func (t *tracer) start(name string, parent int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{}) // reserve the ID
	id := len(t.spans)
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans[id-1] = spanRec{ID: id, Parent: parent, Trace: trace, Name: name}
	t.mu.Unlock()
	return &span{t: t, id: id, trace: trace, start: time.Now()}
}

// child opens a span beneath s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.t.start(name, s.id)
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	r := &s.t.spans[s.id-1]
	r.StartNS = s.start.Sub(s.t.t0).Nanoseconds()
	r.EndNS = now.Sub(s.t.t0).Nanoseconds()
	s.t.mu.Unlock()
}

// addPhases records the program's own phase tree (a report's
// RunMetrics phases: compile, load, skip, measure, collect,
// checkpoint.write, checkpoint.restore) beneath s, anchored at s's
// start.
func (s *span) addPhases(pt obs.PhaseTiming) {
	if s == nil {
		return
	}
	s.addPhase(pt, s.start)
}

func (s *span) addPhase(pt obs.PhaseTiming, base time.Time) {
	start := base.Add(time.Duration(pt.StartNS))
	t := s.t
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{
		ID: id, Parent: s.id, Trace: s.trace, Name: pt.Name,
		StartNS: start.Sub(t.t0).Nanoseconds(),
		EndNS:   start.Sub(t.t0).Nanoseconds() + pt.WallNS,
	})
	t.mu.Unlock()
	child := &span{t: t, id: id, trace: s.trace, start: start}
	for _, c := range pt.Children {
		child.addPhase(c, start)
	}
}

// runWorkload calls repro.RunWorkload inside the open span sp (nil
// when untraced), closes it, and records the run's own phase tree
// beneath it.
func runWorkload(ctx context.Context, sp *span, name string, cfg repro.Config) (*repro.Report, error) {
	rep, err := repro.RunWorkload(ctx, name, cfg)
	sp.end()
	if rep != nil && rep.Metrics != nil {
		sp.addPhases(rep.Metrics.Phases)
	}
	return rep, err
}

// selfStat is one span name's aggregate.
type selfStat struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// self aggregates spans by name. A span's self time is its duration
// minus the part of it its children cover (their union: a snapshot
// write overlaps the measure phase it interrupts).
func (t *tracer) self() []selfStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]spanRec, len(t.spans)+1)
	for _, r := range t.spans {
		if r.Parent > 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	by := map[string]*selfStat{}
	for _, r := range t.spans {
		st := by[r.Name]
		if st == nil {
			st = &selfStat{Name: r.Name}
			by[r.Name] = st
		}
		d := r.EndNS - r.StartNS
		st.Calls++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-covered(r, children[r.ID])) / 1e6
	}
	out := make([]selfStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent spanRec, kids []spanRec) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	end := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, end), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// selfTimes renders the per-layer self times, largest first.
func (t *tracer) selfTimes() []string {
	var out []string
	for _, s := range t.self() {
		out = append(out, fmt.Sprintf("%-28s %7d calls %12.3f ms total %12.3f ms self",
			s.Name, s.Calls, s.TotalMS, s.SelfMS))
	}
	return out
}

// write saves every span and the self-time table as JSON.
func (t *tracer) write(path string) error {
	self := t.self()
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Self  []selfStat `json:"self"`
		Spans []spanRec  `json:"spans"`
	}{self, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
