package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(i) for every i in [0, n) across a bounded pool
// of worker goroutines. workers <= 0 means GOMAXPROCS; the pool is
// clamped to n, and workers <= 1 degenerates to a plain serial loop
// (no goroutines at all), so the serial path stays bit-identical to
// code written before this pool existed.
//
// Indices are handed out atomically in order, but fn invocations for
// different i may interleave arbitrarily — callers own determinism:
// each fn(i) must touch only state derived from i (results slots,
// per-trial seeds), never shared mutable state, and callers must merge
// results by index order, not completion order. That discipline is
// what makes parallel sweeps bit-identical to serial ones.
//
// A panic in fn reaches the caller at any worker count. In the pool,
// the first panic stops the hand-out of new indices; once every
// worker has returned, ParallelFor re-panics with the value of the
// lowest index that panicked, as the serial loop would have.
func ParallelFor(workers, n int, fn func(int)) {
	if workers <= 0 {
		//lint:ignore detflow worker count is result-invariant: index-ordered merge makes parallel sweeps bit-identical to serial (pinned by the equivalence tests)
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicAt  = n
		panicVal any
	)
	// run calls fn(i) and reports whether it returned; a panic is kept
	// if its index is the lowest so far.
	run := func(i int) (ok bool) {
		defer func() {
			if !ok {
				r := recover()
				mu.Lock()
				if i < panicAt {
					panicAt, panicVal = i, r
				}
				mu.Unlock()
			}
		}()
		fn(i)
		return true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:ignore detflow bounded worker pool; callers merge results in index order
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !run(i) {
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicAt < n {
		panic(panicVal)
	}
}
