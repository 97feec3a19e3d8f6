package jobs

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
)

func noop(context.Context, *Job) (any, error) { return nil, nil }

// noBytes is a byte accounting that counts nothing.
func noBytes(any) int64 { return 0 }

// TestRetentionEvictsOldestTerminal pins the retention rule on a table
// that keeps one finished job: the oldest terminal job is evicted from
// the listing, the id index and the key index, an in-flight job is
// never evicted however old, and an evicted key admits a new job.
func TestRetentionEvictsOldestTerminal(t *testing.T) {
	tb := New(t.TempDir(), "", 1, &clock.Virtual{}, noBytes, context.Background())
	submit := func(key string, body func(context.Context, *Job) (any, error)) *Job {
		t.Helper()
		j, existing, err := tb.Submit(key, func(j *Job) { j.Kind = "sweep" }, body)
		if err != nil || existing {
			t.Fatalf("Submit(%s): existing=%v err=%v", key, existing, err)
		}
		return j
	}
	held := submit("held", func(ctx context.Context, _ *Job) (any, error) { <-ctx.Done(); return nil, ctx.Err() })
	a := submit("a", noop)
	<-a.Done()
	b := submit("b", noop)
	<-b.Done()

	if _, ok := tb.Get(a.ID); ok {
		t.Fatalf("%s is still held after a newer job finished", a.ID)
	}
	if views := tb.List(); len(views) != 2 || views[0].ID != held.ID || views[1].ID != b.ID {
		t.Fatalf("listing %+v, want the in-flight %s and the newest terminal %s", views, held.ID, b.ID)
	}
	if c := tb.Tally().Jobs; c.Total != 2 || c.Running+c.Queued != 1 || c.Done != 1 {
		t.Fatalf("counts %+v, want one in flight and one done", c)
	}
	again, existing, err := tb.Submit("a", func(*Job) {}, noop)
	if err != nil || existing || again.ID == a.ID {
		t.Fatalf("resubmitting an evicted key: job %v existing=%v err=%v, want a new job", again, existing, err)
	}
	<-again.Done()
	if dup, existing, _ := tb.Submit("b", func(*Job) {}, noop); existing {
		t.Fatalf("key b still dedupes onto evicted job %s", dup.ID)
	}
	held.Cancel()
	tb.Wait()
}

// TestRetentionSoak pushes 100 000 no-op jobs through one table (fewer
// under -race): the retained terminal jobs never exceed the bound, the
// goroutine count returns to its baseline, and the heap in use after a
// GC stops growing once the table is full. The parent context is
// cancellable, as fdaserve's signal context is, so a job context that
// outlived its job would stay registered with it and show as growth.
func TestRetentionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("retention soak skipped in -short mode")
	}
	const retain = 1024
	total, mark := 100_000, 25_000
	if raceEnabled {
		total, mark = 8_000, 2_000
	}
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseline := runtime.NumGoroutine()
	heapInuse := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}

	tb := New(t.TempDir(), "soak", retain, &clock.Virtual{}, noBytes, base)
	var atMark int64
	for i := 1; i <= total; i++ {
		j, _, err := tb.Submit(fmt.Sprintf("soak|%d", i), func(j *Job) { j.Kind = "train" }, noop)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if i%1000 == 0 {
			if c := tb.Tally().Jobs; c.Total-c.Running-c.Queued > retain {
				t.Fatalf("after %d jobs the table retains %d terminal jobs, bound %d", i, c.Total-c.Running-c.Queued, retain)
			}
		}
		if i == mark {
			atMark = heapInuse()
		}
	}
	tb.Wait()
	grew := heapInuse() - atMark
	t.Logf("HeapInuse after GC: %+.2f MB from job %d to job %d", float64(grew)/(1<<20), mark, total)
	if grew > 4<<20 {
		t.Fatalf("HeapInuse grew %.1f MB from job %d to job %d; the table leaks", float64(grew)/(1<<20), mark, total)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the soak, baseline %d", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestTallyRunningAtClockStart pins the queued/running split on a
// virtual clock that never moves: a job whose goroutine started at the
// table's first instant is running, not queued.
func TestTallyRunningAtClockStart(t *testing.T) {
	tb := New(t.TempDir(), "", 1, &clock.Virtual{}, noBytes, context.Background())
	started := make(chan struct{})
	j, _, err := tb.Submit("k", func(*Job) {}, func(ctx context.Context, _ *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if c := tb.Tally().Jobs; c.Running != 1 || c.Queued != 0 {
		t.Fatalf("counts %+v, want the started job running", c)
	}
	j.Cancel()
	tb.Wait()
}
