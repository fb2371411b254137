// Package overload is the admission-control layer for the serving
// stack: a bounded simulation semaphore with a short FIFO wait queue
// (Gate). It makes the daemon degrade gracefully instead of
// collapsing — a burst of cold requests is shed with a typed error the
// server maps to HTTP 503 + Retry-After. (A workload that fails
// deterministically is answered from the result cache's failure memo
// and never reaches the Gate twice.) See DESIGN.md §13.
package overload

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ShedError reports a request turned away by admission control: the
// simulation semaphore was full and so was its wait queue. Servers map
// it to HTTP 503 with RetryAfter as the Retry-After hint.
type ShedError struct {
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("overload: admission queue full, retry after %v", e.RetryAfter)
}

// Gate is a bounded simulation semaphore with a FIFO wait queue. Up to
// capacity callers hold a slot concurrently; up to queueDepth more
// wait in arrival order; everyone past that is shed immediately with a
// *ShedError. The zero value is not usable; construct with NewGate.
// All methods are safe for concurrent use.
type Gate struct {
	capacity   int
	queueDepth int
	retryAfter time.Duration

	mu          sync.Mutex
	inUse       int
	queue       []*waiter // FIFO: queue[0] is admitted next
	shed        uint64
	maxInFlight int
	maxQueued   int
}

// waiter is one queued Acquire. granted is set (under Gate.mu) when a
// released slot is handed to the waiter; ready is closed at the same
// moment.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// NewGate builds a gate admitting capacity concurrent holders (< 1 is
// clamped to 1) with queueDepth waiters (< 0 is clamped to 0) and
// retryAfter as the back-off hint carried by shed errors.
func NewGate(capacity, queueDepth int, retryAfter time.Duration) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &Gate{capacity: capacity, queueDepth: queueDepth, retryAfter: retryAfter}
}

// Acquire takes a slot, waiting in FIFO order behind earlier callers.
// It returns nil when the slot is held (pair with Release), a
// *ShedError immediately when both the semaphore and the queue are
// full, or the context's cause when ctx ends while waiting.
func (g *Gate) Acquire(ctx context.Context) error {
	g.mu.Lock()
	// Fast path: a free slot and nobody queued ahead of us.
	if g.inUse < g.capacity && len(g.queue) == 0 {
		g.inUse++
		if g.inUse > g.maxInFlight {
			g.maxInFlight = g.inUse
		}
		g.mu.Unlock()
		return nil
	}
	if len(g.queue) >= g.queueDepth {
		g.shed++
		g.mu.Unlock()
		return &ShedError{RetryAfter: g.retryAfter}
	}
	w := &waiter{ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	if len(g.queue) > g.maxQueued {
		g.maxQueued = len(g.queue)
	}
	g.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// The slot was handed to us as ctx ended: pass it on so it
			// is not leaked.
			g.releaseLocked()
		} else {
			for i, q := range g.queue {
				if q == w {
					g.queue = append(g.queue[:i], g.queue[i+1:]...)
					break
				}
			}
		}
		g.mu.Unlock()
		if c := context.Cause(ctx); c != nil {
			return c
		}
		return ctx.Err()
	}
}

// Release returns a slot, handing it to the oldest queued waiter when
// one exists.
func (g *Gate) Release() {
	g.mu.Lock()
	g.releaseLocked()
	g.mu.Unlock()
}

// releaseLocked transfers the slot to the queue head or frees it.
// Abandoned waiters remove themselves under g.mu, so any waiter still
// queued here is live. Caller holds g.mu.
func (g *Gate) releaseLocked() {
	if len(g.queue) > 0 {
		w := g.queue[0]
		g.queue = g.queue[1:]
		w.granted = true
		close(w.ready)
		return // slot transferred, inUse unchanged
	}
	g.inUse--
}

// InFlight returns the number of slots currently held.
func (g *Gate) InFlight() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(g.inUse)
}

// Queued returns the number of callers waiting for a slot.
func (g *Gate) Queued() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(len(g.queue))
}

// Shed returns how many Acquire calls were turned away.
func (g *Gate) Shed() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.shed
}

// MaxInFlight returns the high-water mark of concurrently held slots.
func (g *Gate) MaxInFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxInFlight
}

// MaxQueued returns the high-water mark of the wait queue.
func (g *Gate) MaxQueued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxQueued
}
