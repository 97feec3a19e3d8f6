package clock

import (
	"sync"
	"testing"
	"time"
)

func TestWallNowTracksTimeAndNeverDecreases(t *testing.T) {
	c := Wall()
	if d := c.Now() - time.Now().UnixNano(); d < -1e9 || d > 1e9 {
		t.Fatalf("Wall().Now() is %v off time.Now()", time.Duration(d))
	}
	last := c.Now()
	for i := 0; i < 100_000; i++ {
		now := c.Now()
		if now < last {
			t.Fatalf("read %d: %d after %d", i, now, last)
		}
		last = now
	}
}

func TestWallWaitUntilReturnsOnStop(t *testing.T) {
	c := Wall()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.WaitUntil(c.Now()+int64(time.Hour), stop)
		close(done)
	}()
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitUntil did not return after stop closed")
	}
	// A past instant returns at once, stop or not.
	c.WaitUntil(c.Now()-1, nil)
}

// TestVirtualNeverRewinds races WaitUntil calls for scattered instants
// from concurrent goroutines: every read is at least the previous one
// (run it under -race), and the clock ends at the latest instant
// waited for.
func TestVirtualNeverRewinds(t *testing.T) {
	var v Virtual
	const workers, calls = 8, 2000
	instant := func(w, i int) int64 { return int64((i*7919 + w*104729) % 1_000_000) }
	var latest int64
	for w := 0; w < workers; w++ {
		for i := 0; i < calls; i++ {
			latest = max(latest, instant(w, i))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := v.Now()
			for i := 0; i < calls; i++ {
				v.WaitUntil(instant(w, i), nil)
				now := v.Now()
				if now < last {
					t.Errorf("worker %d: clock moved back from %d to %d", w, last, now)
					return
				}
				last = now
			}
		}(w)
	}
	wg.Wait()
	if got := v.Now(); got != latest {
		t.Fatalf("clock reads %d after waits up to %d", got, latest)
	}
}
