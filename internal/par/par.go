// Package par is the bounded fan-out primitive shared by the training
// loop (internal/core) and the sweep runner (internal/experiments). It
// defines the repository-wide parallelism-knob convention and the
// index-addressed dispatch loop both layers build on.
//
// Determinism contract: ForEach guarantees each index executes exactly
// once, but in no particular order, possibly concurrently, and on no
// particular goroutine. Callers stay bit-identical to a sequential loop
// by writing only to index-addressed slots and performing
// floating-point reductions afterwards, in index order, on the calling
// goroutine; integer reductions are order-independent.
//
// Core budget: a call's workers is a cap, not an allocation. The caller
// always runs bodies itself and recruits helper goroutines only for
// tokens free at that moment in one process-wide budget of
// GOMAXPROCS−1. However calls nest (a sweep's cells, each fanning out
// over its workers) or overlap, they add at most that many goroutines
// to the callers already running, and a helper's token goes back the
// moment it runs out of indices, to whichever call asks next.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
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

// helpers counts the helper goroutines running bodies across the
// process; outside SeedWidths, grant keeps it at or below GOMAXPROCS−1.
var helpers atomic.Int64

// widths is SeedWidths' draw counter, nil outside that seam.
var widths atomic.Pointer[atomic.Uint64]

// grant takes up to want tokens from the budget without blocking and
// returns how many it got. GOMAXPROCS is read on every call, so a
// change to it takes effect at the next dispatch.
func grant(want int) int {
	if want <= 0 {
		return 0
	}
	if c := widths.Load(); c != nil {
		want = min(want, tensor.NewRNG(c.Add(1)).Intn(8))
		helpers.Add(int64(want))
		return want
	}
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		cur := helpers.Load()
		got := max(0, min(int64(want), limit-cur))
		if got == 0 || helpers.CompareAndSwap(cur, cur+got) {
			return int(got)
		}
	}
}

// SeedWidths is a test seam. Until the returned restore function runs,
// every call is granted a width drawn from a generator seeded with
// seed — 1…8, redrawn on every call, still capped by the call's workers
// and n — whatever the budget holds. Widths then change from call to
// call and which goroutine runs an index changes from run to run, so a
// result that depends on either (scratch indexed by goroutine rather
// than by index, a reduction in completion order) shows up as a parity
// failure, or as a report under -race. Production code never calls it.
func SeedWidths(seed uint64) (restore func()) {
	c := new(atomic.Uint64)
	c.Store(seed)
	widths.Store(c)
	return func() { widths.Store(nil) }
}

// ForEach runs body(i) for every i in [0, n), on the calling goroutine
// and on up to min(workers, n)−1 helpers the core budget grants. With
// one effective worker, n <= 1, or no free token it runs inline, in
// index order; otherwise indices are drawn from a shared atomic counter.
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
//
// The caller never returns while a helper it recruited still runs: a
// body that panics on the caller's goroutine first stops the draw and
// waits for the helpers, so a caller that recovers (a server's job
// runner) leaves no goroutine behind and no token taken.
func forEach(done <-chan struct{}, workers, n int, body func(i int)) (stopped bool) {
	var next atomic.Int64
	var stop atomic.Bool
	run := func() {
		for {
			select {
			case <-done:
				stop.Store(true)
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(i)
		}
	}
	var wg sync.WaitGroup
	defer func() {
		next.Store(int64(n)) // after a panic on the caller, helpers draw nothing more
		wg.Wait()
		stopped = stop.Load()
	}()
	for range grant(min(workers, n) - 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
			helpers.Add(-1)
		}()
	}
	run()
	return
}
