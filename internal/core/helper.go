package core

// The observer helper: when a core is free, Run gives its pipeline a
// second goroutine that runs every stage after the census. The run
// goroutine keeps the simulator and the census (the stages read its
// verdicts) and hands each classified batch over a fixed ring; the
// helper runs the stages over it in stage order. Every observer stays
// on one goroutine and sees the same ordered event stream, so no
// measured byte depends on whether a helper ran. See DESIGN.md §9.

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ringDepth is how many classified batches can wait for the helper.
// Each side wakes the other once per half ring, not once per batch:
// an idle helper sleeps until wakeAt batches are pending, and a run
// goroutine blocked on a full ring sleeps until the helper has freed
// wakeAt slots. Waking the helper for every batch cost more than the
// overlap gained on short runs.
const (
	ringDepth = 16
	wakeAt    = ringDepth / 2
)

// busySims counts the process's busy simulation goroutines: every Run
// in progress plus every helper. A run takes a helper only while the
// count, the helper included, stays within GOMAXPROCS, so parallel
// RunAll, sweeps and the server, which already fill the cores, keep
// the inline pipeline.
var busySims atomic.Int64

// takeHelperSlot claims a busy slot for a helper if a core is free.
func takeHelperSlot() bool {
	limit := int64(runtime.GOMAXPROCS(0))
	for {
		n := busySims.Load()
		if n+1 > limit {
			return false
		}
		if busySims.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// batchPool recycles ring batches across runs.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// helperPanic carries a panic recovered on the helper to the run
// goroutine, which re-raises it so Run reports a *PanicError whose
// stack covers the panicking stage.
type helperPanic struct {
	value any
	stack []byte
}

// testHookPipeline, when set by a test, sees every pipeline newMachine
// builds, after its helper (if any) started.
var testHookPipeline func(*Pipeline)

// helper is the ring between the run goroutine and the helper
// goroutine. Slots ring[got%ringDepth] through ring[(put-1)%ringDepth]
// hold batches handed off and not yet finished; every other slot is
// free. All fields are guarded by mu.
type helper struct {
	mu   sync.Mutex
	work sync.Cond // the helper waits here for batches
	room sync.Cond // the run goroutine waits here for free slots or a drain

	ring     [ringDepth]*batch
	put, got uint64
	idle     bool // the helper is waiting on work
	waiting  bool // the run goroutine is waiting on room
	draining bool // the run goroutine waits for every pending batch
	stop     bool
	failed   *helperPanic
	done     chan struct{} // closed when the helper goroutine exits
}

// startHelper gives p a helper goroutine if it has stages to run and a
// core is free. Only Run's newMachine calls it: a pipeline built with
// NewPipeline stays synchronous.
func (p *Pipeline) startHelper() {
	if len(p.stages) == 0 || !takeHelperSlot() {
		return
	}
	h := &helper{done: make(chan struct{})}
	h.work.L, h.room.L = &h.mu, &h.mu
	for i := range h.ring {
		b := batchPool.Get().(*batch)
		b.reserve(p.WantsCalls())
		h.ring[i] = b
	}
	p.h = h
	go h.loop(p)
}

// loop runs p's stages over each handed-off batch, in hand-off order,
// until stopped or a stage panics.
func (h *helper) loop(p *Pipeline) {
	defer close(h.done)
	defer func() {
		if pv := recover(); pv != nil {
			h.mu.Lock()
			h.failed = &helperPanic{value: pv, stack: debug.Stack()}
			h.room.Signal()
			h.mu.Unlock()
		}
	}()
	h.mu.Lock()
	for {
		if h.put == h.got {
			h.idle = true
			for !h.stop && (h.put == h.got || (h.put-h.got < wakeAt && !h.draining)) {
				h.work.Wait()
			}
			h.idle = false
		}
		if h.stop {
			h.mu.Unlock()
			return
		}
		b := h.ring[h.got%ringDepth]
		h.mu.Unlock()
		p.runStages(b)
		h.mu.Lock()
		h.got++
		if h.waiting && (h.put == h.got || (!h.draining && h.put-h.got <= ringDepth-wakeAt)) {
			h.room.Signal()
		}
	}
}

// handoff moves the classified batch p.b into the ring and leaves p.b
// empty, waiting while the ring is full.
func (p *Pipeline) handoff() {
	h := p.h
	h.mu.Lock()
	for h.put-h.got == ringDepth && h.failed == nil {
		h.waiting = true
		h.room.Wait()
	}
	h.waiting = false
	if h.failed != nil {
		h.mu.Unlock()
		p.helperFailed()
	}
	slot := h.ring[h.put%ringDepth]
	p.b, *slot = *slot, p.b
	h.put++
	if h.idle && h.put-h.got >= wakeAt {
		h.work.Signal()
	}
	h.mu.Unlock()
	p.b.reset()
}

// drain waits until the helper has finished every handed-off batch:
// the barrier before the counting window toggles, before a snapshot
// reads observer state, and before a phase span ends.
func (p *Pipeline) drain() {
	h := p.h
	if h == nil {
		return
	}
	h.mu.Lock()
	for h.put != h.got && h.failed == nil {
		h.draining, h.waiting = true, true
		if h.idle {
			h.work.Signal()
		}
		h.room.Wait()
	}
	h.draining, h.waiting = false, false
	failed := h.failed != nil
	h.mu.Unlock()
	if failed {
		p.helperFailed()
	}
}

// helperFailed re-raises a helper panic on the run goroutine after
// retiring the helper, so the rest of the run (the partial report's
// collection) proceeds inline. The batch in hand is dropped: its
// census already ran and its stages never will.
func (p *Pipeline) helperFailed() {
	hp := p.h.failed
	p.stopHelper()
	p.b.reset()
	panic(hp)
}

// stopHelper ends the helper goroutine, recycles its ring and returns
// its busy slot. Batches still pending are dropped, so callers that
// need them observed drain first. A no-op without a helper.
func (p *Pipeline) stopHelper() {
	h := p.h
	if h == nil {
		return
	}
	p.h = nil
	h.mu.Lock()
	h.stop = true
	h.work.Signal()
	h.mu.Unlock()
	<-h.done
	for _, b := range h.ring {
		batchPool.Put(b)
	}
	busySims.Add(-1)
}
