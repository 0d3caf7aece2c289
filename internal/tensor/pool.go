package tensor

import (
	"runtime"
	"sync"
)

// This file holds the package's persistent worker pool. Row-parallel kernels
// used to spawn fresh goroutines on every call; under a training loop that
// is thousands of goroutine launches per second. The pool starts
// GOMAXPROCS workers once, on first parallel use, and every parallel
// primitive in the package (and the layers above it, via ParallelSpans)
// shares them, so steady-state parallel compute recycles the same
// goroutines instead of churning new ones.
//
// Discipline: tasks submitted to the pool must be leaves — they must not
// call ParallelSpans themselves. Every kernel in this package and every
// caller in nn/interaction/dist obeys this (their span bodies are plain
// loops), which is what makes blocking waits on span completion safe: pool
// workers only ever run code that terminates without needing the pool.

var (
	poolOnce  sync.Once
	poolTasks chan func()
)

// startPool launches the shared workers. Sized to GOMAXPROCS at first use:
// the pool exists to soak idle cores, and a caller-supplied span width
// already bounds how much of it any one call occupies.
func startPool() {
	n := runtime.GOMAXPROCS(0)
	poolTasks = make(chan func(), 8*n)
	for i := 0; i < n; i++ {
		go func() {
			for f := range poolTasks {
				f()
			}
		}()
	}
}

// EffectiveWorkers resolves a worker-count knob: non-positive means
// GOMAXPROCS, anything else is taken as-is. Callers on allocation-free hot
// paths use it to skip closure construction entirely when the resolved width
// is 1.
func EffectiveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ParallelSpans partitions [0, n) into up to workers contiguous spans and
// runs fn on each, using the package's persistent worker pool for all but
// the first span (which runs on the caller's goroutine). workers <= 0 means
// GOMAXPROCS; with one worker (or n <= 1) it degenerates to a single inline
// call and performs no allocation. When the pool's queue is full the caller
// runs the span inline instead of blocking, so demand bursts degrade to
// sequential execution rather than unbounded queuing.
//
// Spans are contiguous and disjoint, so fn calls for different spans must
// not share mutable state; every caller in this codebase partitions output
// rows (interaction hands out span indices, each owning a row range and a
// workspace), which are disjoint by construction. Results are bitwise independent
// of the worker count for such callers — the partition changes which
// goroutine computes a row, never the arithmetic within it.
func ParallelSpans(workers, n int, fn func(lo, hi int)) {
	workers = EffectiveWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	poolOnce.Do(startPool)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		task := func(lo, hi int) func() {
			return func() {
				defer wg.Done()
				fn(lo, hi)
			}
		}(lo, hi)
		select {
		case poolTasks <- task:
		default:
			task()
		}
	}
	fn(0, chunk)
	wg.Wait()
}
