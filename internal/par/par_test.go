package par

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != 1 {
		t.Fatalf("Resolve(0) = %d want 1 (sequential zero value)", got)
	}
	if got := Resolve(1); got != 1 {
		t.Fatalf("Resolve(1) = %d", got)
	}
	if got := Resolve(6); got != 6 {
		t.Fatalf("Resolve(6) = %d", got)
	}
	if got := Resolve(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-1) = %d want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestForEachCoversEveryIndexOnce drives the dispatch loop across widths
// and sizes — including width > n, n == 0 and the sequential path — and
// checks each index runs exactly once. The concurrent counter increments
// also make this a race-detector probe.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 13, 64} {
		for _, n := range []int{0, 1, 5, 64, 257} {
			hits := make([]atomic.Int32, n)
			ForEach(w, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", w, n, i, c)
				}
			}
		}
	}
}

// TestForEachCtxNilAndCompleted: a nil or never-cancelled context runs
// every index and returns nil, matching ForEach.
func TestForEachCtxNilAndCompleted(t *testing.T) {
	for _, w := range []int{1, 4} {
		hits := make([]atomic.Int32, 50)
		if err := ForEachCtx(nil, w, len(hits), func(i int) { hits[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("nil-ctx width %d: index %d ran %d times", w, i, hits[i].Load())
			}
		}
		hits = make([]atomic.Int32, 50)
		if err := ForEachCtx(context.Background(), w, len(hits), func(i int) { hits[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("background-ctx width %d: index %d ran %d times", w, i, hits[i].Load())
			}
		}
	}
}

// TestForEachCtxCancellation: cancelling mid-loop stops new dispatches,
// never interrupts a running body, and returns the context error. The
// sequential path must preserve prefix order: indices [0, k) ran, the
// rest did not.
func TestForEachCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := make([]atomic.Int32, 100)
	err := ForEachCtx(ctx, 1, len(ran), func(i int) {
		ran[i].Add(1)
		if i == 9 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	for i := range ran {
		want := int32(0)
		if i < 10 {
			want = 1
		}
		if ran[i].Load() != want {
			t.Fatalf("sequential cancel: index %d ran %d times", i, ran[i].Load())
		}
	}

	// Parallel path: at least the post-cancel tail is skipped, and no
	// index runs twice.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var count atomic.Int32
	ran2 := make([]atomic.Int32, 1000)
	err = ForEachCtx(ctx2, 4, len(ran2), func(i int) {
		ran2[i].Add(1)
		if count.Add(1) == 5 {
			cancel2()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v", err)
	}
	total := int32(0)
	for i := range ran2 {
		c := ran2[i].Load()
		if c > 1 {
			t.Fatalf("parallel cancel: index %d ran %d times", i, c)
		}
		total += c
	}
	if total == int32(len(ran2)) {
		t.Fatal("cancellation skipped nothing")
	}

	// Pre-cancelled: nothing runs.
	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	ran3 := 0
	if err := ForEachCtx(ctx3, 4, 10, func(int) { ran3++ }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if ran3 != 0 {
		t.Fatalf("pre-cancelled ctx ran %d bodies", ran3)
	}
}

// TestBudgetBoundsNestedCallers pins the process-wide budget: eight
// concurrent callers, each fanning out into nested calls, never hold
// more than GOMAXPROCS−1 helpers between them, and every token is back
// once the calls return.
func TestBudgetBoundsNestedCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	check := func() {
		if c := helpers.Load(); c < 0 || c > limit {
			t.Errorf("%d helpers in use, budget %d", c, limit)
		}
	}
	var wg sync.WaitGroup
	hits := make([]atomic.Int32, 8*16*4)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForEach(8, 16, func(i int) {
				ForEach(8, 4, func(j int) {
					hits[(c*16+i)*4+j].Add(1)
					runtime.Gosched()
					check()
				})
				check()
			})
		}()
	}
	wg.Wait()
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, hits[i].Load())
		}
	}
	if c := helpers.Load(); c != 0 {
		t.Fatalf("%d helpers still held after every call returned", c)
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	b := make([]byte, 64)
	return strings.Fields(string(b[:runtime.Stack(b, false)]))[1]
}

// TestPanicOnCallerWaitsForHelpers: a body that panics on the caller's
// goroutine re-panics out of ForEach only once every helper has left
// its body and returned its token, so a caller that recovers leaves
// nothing running.
func TestPanicOnCallerWaitsForHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	caller := goid()
	helperRan := make(chan struct{})
	var once sync.Once
	var inBody atomic.Int32
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the body's panic", r)
			}
			if c := inBody.Load(); c != 0 {
				t.Fatalf("re-panicked with %d helper bodies still running", c)
			}
			if c := helpers.Load(); c != 0 {
				t.Fatalf("re-panicked with %d tokens still held", c)
			}
		}()
		ForEach(4, 1000, func(int) {
			if goid() == caller {
				<-helperRan
				panic("boom")
			}
			inBody.Add(1)
			once.Do(func() { close(helperRan) })
			for k := 0; k < 100; k++ {
				runtime.Gosched()
			}
			inBody.Add(-1)
		})
		t.Fatal("ForEach returned after its body panicked")
	}()
}

// TestCancelledCallReturnsTokens: a ForEachCtx stopped by its context,
// mid-loop or before it starts, hands back every token it took.
func TestCancelledCallReturnsTokens(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int32
	err := ForEachCtx(ctx, 4, 1000, func(int) {
		if count.Add(1) == 5 {
			cancel()
		}
		runtime.Gosched()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if c := helpers.Load(); c != 0 {
		t.Fatalf("cancelled call left %d tokens held", c)
	}
	if err := ForEachCtx(ctx, 4, 10, func(int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if c := helpers.Load(); c != 0 {
		t.Fatalf("pre-cancelled call left %d tokens held", c)
	}
}
