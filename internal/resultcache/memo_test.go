package resultcache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/overload"
)

// failing returns a compute func that counts invocations and fails
// with err, carrying a partial report truncated for reason ("" = no
// report).
func failing(count *atomic.Int64, reason string, err error) func(context.Context) (*core.Report, error) {
	return func(context.Context) (*core.Report, error) {
		count.Add(1)
		if reason == "" {
			return nil, err
		}
		r := fakeReport("w", 10)
		r.Truncated = true
		r.TruncatedReason = reason
		return r, err
	}
}

// memoCase is one failure class: the partial report's truncation
// reason ("" = no report), the error, and whether the cache remembers
// it.
type memoCase struct {
	name     string
	reason   string
	err      error
	remember bool
}

// checkMemo calls each case's failing key twice on a fresh cache and
// checks the second call computes again exactly when the class is not
// remembered, that every call returns the failure's error, and that
// no failure is ever stored as a report.
func checkMemo(t *testing.T, cases []memoCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache := mustCache(t, 0, "")
			var computes atomic.Int64
			for i := 0; i < 2; i++ {
				if _, err := cache.GetOrCompute(context.Background(), "k", failing(&computes, c.reason, c.err)); err != c.err {
					t.Fatalf("call %d: err = %v, want %v", i+1, err, c.err)
				}
			}
			want, hits := int64(2), uint64(0)
			if c.remember {
				want, hits = 1, 1
			}
			if n := computes.Load(); n != want {
				t.Errorf("computes = %d, want %d", n, want)
			}
			if n := cache.Stats.FailureHits.Value(); n != hits {
				t.Errorf("failure hits = %d, want %d", n, hits)
			}
			if cache.Stats.Stores.Value() != 0 {
				t.Error("a failure was stored as a report")
			}
		})
	}
}

// TestFailureMemoRemembersPanicAndFault pins the remembered classes:
// a partial report cut short by a panic or a simulator fault is kept
// after its first failure, so the repeat does not compute. Other keys
// are unaffected by it.
func TestFailureMemoRemembersPanicAndFault(t *testing.T) {
	checkMemo(t, []memoCase{
		{"panic", core.ReasonPanic, &core.PanicError{Benchmark: "w", Value: "boom"}, true},
		{"fault", core.ReasonFault, errors.New("cpu: bad opcode"), true},
	})

	c := mustCache(t, 0, "")
	var fails, oks atomic.Int64
	c.GetOrCompute(context.Background(), "lisp", failing(&fails, core.ReasonFault, errors.New("cpu: bad opcode")))
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrCompute(context.Background(), "goban", countingCompute("goban", &oks)); err != nil {
			t.Fatalf("healthy key failed next to a remembered one: %v", err)
		}
	}
	if fails.Load() != 1 || oks.Load() != 1 || c.Stats.Hits.Value() != 1 {
		t.Errorf("fails=%d oks=%d hits=%d, want 1/1/1", fails.Load(), oks.Load(), c.Stats.Hits.Value())
	}
}

// TestFailureMemoShedNotRemembered pins that errors which come back
// without a report — a shed request, a compile error — compute again:
// they say nothing about what the run itself would produce.
func TestFailureMemoShedNotRemembered(t *testing.T) {
	checkMemo(t, []memoCase{
		{"shed", "", &overload.ShedError{RetryAfter: time.Second}, false},
		{"no report", "", errors.New("minic: syntax error"), false},
	})
}

// TestFailureMemoCancelNotRemembered pins that a canceled run, wrapped
// or not, is never remembered, and that a run of cancels does not stop
// the key's next successful compute from being cached.
func TestFailureMemoCancelNotRemembered(t *testing.T) {
	checkMemo(t, []memoCase{
		{"canceled", core.ReasonCanceled, context.Canceled, false},
		{"wrapped", core.ReasonCanceled, fmt.Errorf("request: %w", context.Canceled), false},
	})

	c := mustCache(t, 0, "")
	var canceled, oks atomic.Int64
	for i := 0; i < 10; i++ {
		c.GetOrCompute(context.Background(), "goban", failing(&canceled, core.ReasonCanceled, context.Canceled))
	}
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrCompute(context.Background(), "goban", countingCompute("goban", &oks)); err != nil {
			t.Fatal(err)
		}
	}
	if canceled.Load() != 10 || oks.Load() != 1 || c.Stats.FailureHits.Value() != 0 {
		t.Errorf("canceled=%d oks=%d failure hits=%d, want 10/1/0", canceled.Load(), oks.Load(), c.Stats.FailureHits.Value())
	}
}

// TestFailureMemoTimeoutNotRemembered pins that wall-clock causes — a
// run-level timeout and a watchdog abort — compute again: the same
// fingerprint may finish on a less loaded machine.
func TestFailureMemoTimeoutNotRemembered(t *testing.T) {
	checkMemo(t, []memoCase{
		{"timeout", core.ReasonTimeout, &core.TimeoutError{Benchmark: "w", Limit: time.Millisecond}, false},
		{"watchdog", core.ReasonWatchdog, &core.WatchdogError{Benchmark: "w"}, false},
	})
}

// TestFailureMemoHitReturnsIdenticalPair pins that a memo hit answers
// with the very (partial report, error) pair the failure produced,
// counts under failure_hits, and tags the span cache_tier=failure.
func TestFailureMemoHitReturnsIdenticalPair(t *testing.T) {
	c := mustCache(t, 0, "")
	var computes atomic.Int64
	fault := errors.New("cpu: bad opcode")
	rep1, err1 := c.GetOrCompute(context.Background(), "k", failing(&computes, core.ReasonFault, fault))
	if rep1 == nil || err1 != fault {
		t.Fatalf("first call = (%v, %v), want a partial report and the fault", rep1, err1)
	}

	tr := obs.NewTrace("memo")
	rep2, err2 := c.GetOrCompute(obs.WithTrace(context.Background(), tr), "k", failing(&computes, core.ReasonFault, fault))
	if rep2 != rep1 || err2 != err1 {
		t.Fatalf("memo hit = (%p, %v), want the first pair (%p, %v)", rep2, err2, rep1, err1)
	}
	if got := tr.Root().Attr("cache_tier"); got != "failure" {
		t.Errorf("cache_tier = %v, want failure", got)
	}
	if computes.Load() != 1 {
		t.Errorf("computes = %d, want 1", computes.Load())
	}
	var hits int64 = -1
	for _, v := range c.StatValues() {
		if v.Name == "failure_hits" {
			hits = v.Value
		}
	}
	if hits != 1 || c.Stats.Hits.Value() != 0 || c.Stats.Misses.Value() != 1 {
		t.Errorf("failure_hits=%d hits=%d misses=%d, want 1/0/1", hits, c.Stats.Hits.Value(), c.Stats.Misses.Value())
	}
}

// TestFailureMemoBoundedMemoryOnly pins where the memo lives: in the
// memory tier, counted against MaxEntries and evicted in LRU order,
// and never on disk, so a restarted process starts clean.
func TestFailureMemoBoundedMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, 2, dir)
	ctx := context.Background()
	var fails, oks atomic.Int64
	fault := failing(&fails, core.ReasonPanic, errors.New("boom"))
	c.GetOrCompute(ctx, "f", fault)
	if _, err := os.Stat(c.diskPath("f")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("remembered failure reached the disk tier")
	}
	if c.Len() != 1 {
		t.Fatalf("memory entries = %d, want 1 (the memo)", c.Len())
	}
	for _, k := range []string{"a", "b"} {
		if _, err := c.GetOrCompute(ctx, k, countingCompute(k, &oks)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 || c.Stats.Evictions.Value() != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2/1", c.Len(), c.Stats.Evictions.Value())
	}

	reopened := mustCache(t, 2, dir)
	reopened.GetOrCompute(ctx, "f", fault)
	if fails.Load() != 2 {
		t.Fatalf("reopened cache remembered a failure: computes=%d, want 2", fails.Load())
	}
}

// evictMemo fills a one-slot cache with another report, pushing the
// remembered failure out.
func evictMemo(t *testing.T, c *Cache) {
	t.Helper()
	var oks atomic.Int64
	if _, err := c.GetOrCompute(context.Background(), "other", countingCompute("other", &oks)); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Evictions.Value() == 0 {
		t.Fatal("storing another report evicted nothing")
	}
}

// TestFailureMemoEvictedKeyRecomputes pins that an evicted failure is
// forgotten: the key computes again, and when that compute now
// succeeds (a fixed binary, say) the report is cached and served.
func TestFailureMemoEvictedKeyRecomputes(t *testing.T) {
	c := mustCache(t, 1, "")
	ctx := context.Background()
	var fails, oks atomic.Int64
	c.GetOrCompute(ctx, "lisp", failing(&fails, core.ReasonFault, errors.New("cpu: bad opcode")))
	evictMemo(t, c)

	for i := 0; i < 2; i++ {
		rep, err := c.GetOrCompute(ctx, "lisp", countingCompute("lisp", &oks))
		if err != nil || rep == nil || rep.Truncated {
			t.Fatalf("call %d after eviction = (%v, %v), want a full report", i+1, rep, err)
		}
	}
	if fails.Load() != 1 || oks.Load() != 1 || c.Stats.FailureHits.Value() != 0 {
		t.Errorf("fails=%d oks=%d failure hits=%d, want 1/1/0", fails.Load(), oks.Load(), c.Stats.FailureHits.Value())
	}
}

// TestFailureMemoEvictedFailureRememberedAgain pins that a key whose
// memo was evicted and whose recompute fails the same way is
// remembered afresh: one compute per eviction, never one per call.
func TestFailureMemoEvictedFailureRememberedAgain(t *testing.T) {
	c := mustCache(t, 1, "")
	ctx := context.Background()
	var fails atomic.Int64
	fault := errors.New("still broken")
	compute := failing(&fails, core.ReasonFault, fault)
	c.GetOrCompute(ctx, "lisp", compute)
	evictMemo(t, c)

	for i := 0; i < 3; i++ {
		if _, err := c.GetOrCompute(ctx, "lisp", compute); err != fault {
			t.Fatalf("call %d after eviction: err = %v, want %v", i+1, err, fault)
		}
	}
	if fails.Load() != 2 || c.Stats.FailureHits.Value() != 2 {
		t.Errorf("computes=%d failure hits=%d, want 2/2", fails.Load(), c.Stats.FailureHits.Value())
	}
}

// TestFailureMemoConcurrentCallersComputeOnce pins the singleflight
// contract for failures: N concurrent callers of a failing key cause
// one compute, and every caller — followers and later hits alike —
// gets the same pair.
func TestFailureMemoConcurrentCallersComputeOnce(t *testing.T) {
	c := mustCache(t, 0, "")
	const n = 16
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	fault := errors.New("cpu: bad opcode")
	partial := fakeReport("w", 5)
	partial.Truncated, partial.TruncatedReason = true, core.ReasonFault
	compute := func(context.Context) (*core.Report, error) {
		computes.Add(1)
		close(started)
		<-release
		return partial, fault
	}

	var wg sync.WaitGroup
	reps := make([]*core.Report, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = c.GetOrCompute(context.Background(), "k", compute)
		}(i)
	}
	<-started
	for c.Stats.DedupWaits.Value() < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	rep, err := c.GetOrCompute(context.Background(), "k", compute)
	reps, errs = append(reps, rep), append(errs, err)

	if computes.Load() != 1 {
		t.Fatalf("computes = %d, want 1", computes.Load())
	}
	for i := range reps {
		if reps[i] != partial || errs[i] != fault {
			t.Fatalf("caller %d got (%p, %v), want the one failure's pair", i, reps[i], errs[i])
		}
	}
	if c.Stats.FailureHits.Value() != 1 {
		t.Errorf("failure hits = %d, want 1 (the call after the flight)", c.Stats.FailureHits.Value())
	}
}
