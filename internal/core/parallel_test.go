package core

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

// TestPoolForEachCoversEveryIndexOnce drives the Env's worker pool,
// ForEachWorker, across caps — the zero Env's 0, the inline 1, widths
// above K and AutoParallelism — and sizes, and checks each worker runs
// exactly once. The concurrent counter increments also make this a
// race-detector probe for the dispatch loop.
func TestPoolForEachCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{0, 1, 2, 4, 13, par.Resolve(AutoParallelism)} {
		for _, k := range []int{0, 1, 5, 64, 257} {
			hits := make([]atomic.Int32, k)
			env := &Env{Workers: make([]*Worker, k), width: width}
			env.ForEachWorker(func(i int, _ *Worker) { hits[i].Add(1) })
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("width=%d K=%d: worker %d ran %d times", width, k, i, c)
				}
			}
		}
	}
}

// TestPoolNilIsSequential makes the zero-Env contract explicit:
// strategies may call ForEachWorker on an Env that was never given a
// width, and it runs every worker inline, in worker order (an
// unsynchronized append would be a race report otherwise).
func TestPoolNilIsSequential(t *testing.T) {
	var order []int
	(&Env{Workers: make([]*Worker, 4)}).ForEachWorker(func(i int, _ *Worker) { order = append(order, i) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("zero Env ran workers in order %v", order)
	}
}

// TestEvaluatorParity checks the chunked parallel accuracy scan against
// Network.Accuracy on the same parameters: integer count reduction must
// make them exactly equal, for widths that divide the dataset unevenly.
func TestEvaluatorParity(t *testing.T) {
	_, test, model := testWorkload(21)
	ref := model(tensor.NewRNG(21))
	want := ref.Accuracy(test)

	for _, width := range []int{1, 2, 3, 7} {
		e := newEvaluator(width, model(tensor.NewRNG(99)), model, 21)
		if got := e.accuracy(ref.Params(), test); got != want {
			t.Fatalf("width %d: accuracy %v != sequential %v", width, got, want)
		}
	}

	// Replicas follow the grant, not the cap: on one core no helper is
	// granted, so a width-7 scan runs every chunk on the primary.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newEvaluator(7, model(tensor.NewRNG(99)), model, 21)
	if got := e.accuracy(ref.Params(), test); got != want || len(e.free) != 1 {
		t.Fatalf("one core: accuracy %v (want %v), %d replicas built", got, want, len(e.free)-1)
	}
}

// TestEvaluatorTinyDataset covers datasets smaller than the width.
func TestEvaluatorTinyDataset(t *testing.T) {
	_, test, model := testWorkload(22)
	small := test.Subset([]int{0, 1, 2})
	ref := model(tensor.NewRNG(5))
	want := ref.Accuracy(small)
	e := newEvaluator(8, model(tensor.NewRNG(6)), model, 22)
	if got := e.accuracy(ref.Params(), small); got != want {
		t.Fatalf("tiny dataset: %v != %v", got, want)
	}
}
