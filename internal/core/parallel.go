package core

import (
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/tensor"
)

// AutoParallelism selects runtime.GOMAXPROCS(0) goroutines wherever a
// parallelism knob accepts it (Config.Parallelism, experiments' Jobs).
const AutoParallelism = -1

// evaluator computes dataset accuracy for the trainer, chunking the scan
// into up to cap(free) pieces on par.ForEach. Network.Forward reuses
// internal activation buffers, so each concurrently running chunk needs
// its own network: a chunk takes a free one or builds a replica when
// all are busy, and hands it back when done. Replicas therefore never
// outnumber the bodies the core budget lets run at once, and handing
// one back never blocks, since at most width networks exist. Replica
// init RNGs are derived from the run seed alone, not the root stream,
// so enabling parallelism leaves the training trajectory untouched;
// their initialization is overwritten by SetParams before every chunk
// anyway. Chunks add integer counts, which is order-independent, so the
// accuracy is bit-identical to a sequential scan whichever network
// scores which chunk, in whatever order.
type evaluator struct {
	build ModelBuilder
	seed  uint64
	free  chan *nn.Network
}

// newEvaluator returns an evaluator whose scans use up to width chunks.
func newEvaluator(width int, primary *nn.Network, build ModelBuilder, seed uint64) *evaluator {
	e := &evaluator{build: build, seed: seed, free: make(chan *nn.Network, max(1, width))}
	e.free <- primary
	return e
}

func (e *evaluator) accuracy(params []float64, ds *data.Dataset) float64 {
	n := ds.Len()
	chunks := max(1, min(cap(e.free), n))
	var correct atomic.Int64
	par.ForEach(chunks, chunks, func(i int) {
		var net *nn.Network
		select {
		case net = <-e.free:
		default:
			net = e.build(tensor.NewRNG(e.seed ^ 0xe7a1 ^ uint64(i)<<32))
		}
		net.SetParams(params)
		correct.Add(int64(net.CountCorrect(ds, i*n/chunks, (i+1)*n/chunks)))
		e.free <- net
	})
	return float64(correct.Load()) / float64(n)
}
