package core

import "testing"

// TestEventQueueLessBreaksTiesByWorker pins the ordering contract: events
// sort by virtual time first, and simultaneous completions by worker id,
// so straggler scheduling is specified rather than an artifact of heap
// internals.
func TestEventQueueLessBreaksTiesByWorker(t *testing.T) {
	q := eventQueue{
		{at: 1.0, worker: 2},
		{at: 1.0, worker: 0},
		{at: 0.5, worker: 7},
	}
	if !q.Less(2, 0) {
		t.Fatal("earlier time must order first regardless of worker id")
	}
	if !q.Less(1, 0) {
		t.Fatal("equal times must break ties by lower worker id")
	}
	if q.Less(0, 1) {
		t.Fatal("tie-break must be asymmetric")
	}
}

// TestEventQueueEqualSpeedsRoundRobin drives the queue exactly as an
// asynchronous session does with equal worker speeds: every virtual-time slot is a
// K-way tie, and the pop order must be a strict worker-id round-robin in
// every round.
func TestEventQueueEqualSpeedsRoundRobin(t *testing.T) {
	const k = 5
	q := make(eventQueue, 0, k)
	// Seed in scrambled order; the heap must still drain ties by id.
	for _, w := range []int{3, 0, 4, 2, 1} {
		q.push(stepEvent{at: 1, worker: w})
	}
	for step := 0; step < 4*k; step++ {
		ev := q.pop()
		if want := step % k; ev.worker != want {
			t.Fatalf("step %d: popped worker %d, want %d (at=%v)", step, ev.worker, want, ev.at)
		}
		if wantAt := 1 + float64(step/k); ev.at != wantAt {
			t.Fatalf("step %d: at = %v, want %v", step, ev.at, wantAt)
		}
		q.push(stepEvent{at: ev.at + 1, worker: ev.worker})
	}
}

// TestEventQueueHeapProperty exercises push/pop with distinct mixed times
// against a straggler pattern: pops must come out in nondecreasing time.
func TestEventQueueHeapProperty(t *testing.T) {
	speeds := []float64{1, 0.3, 2.5, 1, 0.7}
	q := make(eventQueue, 0, len(speeds))
	for w, s := range speeds {
		q.push(stepEvent{at: 1 / s, worker: w})
	}
	prevAt, prevWorker := 0.0, -1
	for i := 0; i < 100; i++ {
		ev := q.pop()
		if ev.at < prevAt || (ev.at == prevAt && ev.worker <= prevWorker) {
			t.Fatalf("pop %d out of order: (%v, w%d) after (%v, w%d)",
				i, ev.at, ev.worker, prevAt, prevWorker)
		}
		prevAt, prevWorker = ev.at, ev.worker
		q.push(stepEvent{at: ev.at + 1/speeds[ev.worker], worker: ev.worker})
	}
}
