package core

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// FanOut calls task(i) for every i in [0, n) with at most parallel
// calls running at once (≤0 = GOMAXPROCS) and returns each call's
// result and error at its index, so completion order never shows in
// the output. It is the one bounded fan-out behind repro.RunAll and
// the sweep engine.
//
// A call that panics fails alone: the panic is recovered into errs[i]
// as a *PanicError naming name(i), counted in h.PanicsRecovered, and
// every other call still runs. done, when set, is called on the
// worker goroutine as each call finishes, panicked or not — the hook
// for live per-item bookkeeping such as progress and counters.
func FanOut[T any](n, parallel int, h *obs.HealthCounters, name func(i int) string,
	task func(i int) (T, error), done func(i int, err error)) ([]T, []error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	errs := make([]error, n)
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{} // acquire before spawning: at most `parallel` goroutines exist
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			if done != nil {
				defer func() { done(i, errs[i]) }()
			}
			defer func() {
				if pv := recover(); pv != nil {
					h.PanicsRecovered.Inc()
					var zero T
					out[i], errs[i] = zero, NewPanicError(name(i), pv)
				}
			}()
			out[i], errs[i] = task(i)
		}(i)
	}
	wg.Wait()
	return out, errs
}
