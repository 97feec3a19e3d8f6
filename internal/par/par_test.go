package par

import (
	"context"
	"errors"
	"runtime"
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

// TestInner pins the share rule across the outer knob's conventions
// (0 and 1 sequential, N literal, negative = GOMAXPROCS) and core
// counts, including outer widths above GOMAXPROCS.
func TestInner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		procs, outer, want int
	}{
		{1, 0, 1}, {1, 1, 1}, {1, 3, 1}, {1, -1, 1},
		{4, 0, 4}, {4, 1, 4}, {4, 2, 2}, {4, 3, 1}, {4, 8, 1}, {4, -1, 1},
		{6, 0, 6}, {6, 1, 6}, {6, 2, 3}, {6, 4, 1}, {6, -1, 1},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := Inner(c.outer); got != c.want {
			t.Errorf("GOMAXPROCS=%d Inner(%d) = %d want %d", c.procs, c.outer, got, c.want)
		}
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
