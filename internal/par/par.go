// Package par is the bounded fan-out primitive shared by the training
// pool (internal/core) and the sweep runner (internal/experiments). It
// defines the repository-wide parallelism-knob convention and the
// index-addressed dispatch loop both layers build on.
//
// Determinism contract: ForEach guarantees each index executes exactly
// once, but in no particular order and possibly concurrently. Callers
// stay bit-identical to a sequential loop by writing only to
// index-addressed slots and performing floating-point reductions
// afterwards, in index order, on the calling goroutine; integer
// reductions are order-independent.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a parallelism knob value to an effective goroutine
// count: 0 (the zero value) and 1 mean sequential, positive values are
// taken literally, and negative values select runtime.GOMAXPROCS.
func Resolve(knob int) int {
	if knob < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if knob == 0 {
		return 1
	}
	return knob
}

// Inner is the share of cores each task gets when an outer knob runs
// tasks concurrently: GOMAXPROCS divided by Resolve(outer), and never
// below 1. It is the width a grid cell hands its own inner parallelism
// knob, so cores the outer fan-out leaves idle go to the tasks it runs.
func Inner(outer int) int {
	return max(1, runtime.GOMAXPROCS(0)/Resolve(outer))
}

// ForEach runs body(i) for every i in [0, n) across up to workers
// goroutines. With one effective worker (or n <= 1) it runs inline on
// the calling goroutine; otherwise indices are drawn from a shared
// atomic counter by min(workers, n) goroutines.
func ForEach(workers, n int, body func(i int)) {
	forEach(nil, workers, n, body)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done,
// no new index is dispatched. Bodies already running are never
// interrupted — an index either executes fully or not at all, which is
// what lets checkpointed sweeps resume without torn cells. It returns
// ctx.Err() when cancellation preempted at least the dispatch loop, nil
// when every index ran.
func ForEachCtx(ctx context.Context, workers, n int, body func(i int)) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if forEach(done, workers, n, body) {
		return ctx.Err()
	}
	return nil
}

// forEach is the one dispatch loop and reports whether done fired
// before every index was drawn. The check sits on the index-draw path
// only, and a receive on a nil channel never fires, so a nil done
// (ForEach, a nil or never-cancellable ctx) draws the same indices in
// the same order as a cancellable one that never fires.
func forEach(done <-chan struct{}, workers, n int, body func(i int)) bool {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return true
			default:
			}
			body(i)
		}
		return false
	}
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					stopped.Store(true)
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
	return stopped.Load()
}
