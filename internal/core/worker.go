package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Worker is one simulated training node: a model replica, a local
// optimizer with private state, and a shard of the training data.
//
// Each worker owns a private scratch arena (drift vector, mini-batch
// view) sized once at construction; every per-step computation happens
// inside it, so the steady-state training step performs zero heap
// allocations and workers can run concurrently without sharing scratch.
type Worker struct {
	ID      int
	Net     *nn.Network
	Opt     opt.Optimizer
	Shard   *data.Dataset
	sampler *data.Sampler

	drift []float64  // scratch: u^(k) = w^(k) − w_t0
	batch data.Batch // scratch: reused mini-batch view
	// reports is the count of drift reports Opt's watch has made since
	// the last checkReport; watched is set once a strategy armed the watch
	// (LinearFDA.Init).
	reports int
	watched bool
}

// LocalStep performs one mini-batch Optimize step and returns the batch
// loss.
//
//fda:noalloc
func (w *Worker) LocalStep(batchSize int) float64 {
	w.sampler.SampleInto(&w.batch, batchSize)
	loss := w.Net.LossGradBatch(w.batch)
	w.Opt.Step(w.Net.Params(), w.Net.Grads())
	return loss
}

// Drift recomputes and returns the worker's drift vector u = w − w0. The
// returned slice is reused across calls.
func (w *Worker) Drift(w0 []float64) []float64 {
	tensor.Sub(w.drift, w.Net.Params(), w0)
	return w.drift
}

// DriftSquaredNorm recomputes the drift and returns it together with
// ‖u‖², fused into one sweep (SketchFDA's state needs both). The squared
// norm accumulates left to right, bit-identical to SquaredNorm(Drift(w0))
// and to the watch.
func (w *Worker) DriftSquaredNorm(w0 []float64) ([]float64, float64) {
	sq := tensor.SubThenSquaredNorm(w.drift, w.Net.Params(), w0)
	return w.drift, sq
}

// checkReport returns a *SilentOptimizerError when w is watched and its
// last local step made no drift report, and restarts the count.
//
//fda:noalloc
func (w *Worker) checkReport() error {
	n := w.reports
	w.reports = 0
	if w.watched && n == 0 {
		return silentOptimizer(w)
	}
	return nil
}

// SilentOptimizerError fails a run whose strategy watches the drift when
// a worker's optimizer steps without reporting it (opt.Optimizer.Watch):
// the strategy's state would stay stale, so it would never synchronize.
type SilentOptimizerError struct {
	Optimizer string // the optimizer's Name
	Worker    int    // the worker's rank
}

func (e *SilentOptimizerError) Error() string {
	return fmt.Sprintf("core: optimizer %s of worker %d stepped without reporting the drift its strategy watches (opt.Optimizer.Watch)", e.Optimizer, e.Worker)
}

// silentOptimizer builds checkReport's error off the hot path.
//
//go:noinline
func silentOptimizer(w *Worker) error {
	return &SilentOptimizerError{Optimizer: w.Opt.Name(), Worker: w.ID}
}

// Env is the shared state a strategy operates on: the communication
// fabric, this process's workers, and the models at the last two
// synchronization points (w_t0 and w_t−1 in the paper's notation,
// needed by LinearFDA's ξ heuristic).
//
// Workers holds only the ranks this process drives — all K of them on
// the in-process fabrics, a single one inside a `fdarun -worker`
// process. Strategies iterate Workers for their per-worker state
// computations and go through Fabric for every cross-worker reduction,
// which is what makes the same strategy code run unchanged on all
// backends.
type Env struct {
	Fabric  comm.Fabric
	Workers []*Worker
	// W0 is the global model at the most recent synchronization.
	W0 []float64
	// WPrev is the global model at the synchronization before that; nil
	// until two synchronizations have happened.
	WPrev []float64
	// D is the model dimension.
	D int
	// SyncCount counts model synchronizations performed so far.
	SyncCount int

	paramViews [][]float64 // local workers' parameter slices, for AllReduce
	// width caps ForEachWorker's goroutines: Config.Parallelism resolved
	// by par.Resolve. The zero Env's 0 runs inline.
	width int

	// w0Arenas double-buffers the (W0, WPrev) pair: at most two
	// synchronization-point models are live at once, so each sync writes
	// the new global model into the arena currently holding the retiring
	// WPrev instead of allocating. w0Idx tracks which arena W0 occupies.
	w0Arenas [2][]float64
	w0Idx    int
	// meanDrift and diff back ExactVarianceViaDrift, which OracleFDA
	// evaluates every step; both are sized on its first call.
	meanDrift, diff []float64
}

func newEnv(fabric comm.Fabric, workers []*Worker) *Env {
	e := &Env{
		Fabric:  fabric,
		Workers: workers,
		D:       workers[0].Net.NumParams(),
	}
	e.w0Arenas[0] = tensor.Clone(workers[0].Net.Params())
	e.W0 = e.w0Arenas[0]
	e.paramViews = make([][]float64, len(workers))
	for i, w := range workers {
		e.paramViews[i] = w.Net.Params()
	}
	return e
}

// advanceW0 retires the current (W0, WPrev) pair: WPrev becomes the old
// W0 and W0 becomes a copy of src, written into the spare arena. Callers
// must not retain the old WPrev slice across synchronizations — the
// arena it occupies is recycled on the following call.
func (e *Env) advanceW0(src []float64) {
	next := 1 - e.w0Idx
	if e.w0Arenas[next] == nil {
		e.w0Arenas[next] = make([]float64, e.D)
	}
	copy(e.w0Arenas[next], src)
	e.WPrev = e.W0
	e.W0 = e.w0Arenas[next]
	e.w0Idx = next
}

// restoreSyncPoints rewinds the (W0, WPrev) bookkeeping to a checkpointed
// pair. The arenas are laid out exactly as a live run would have them —
// W0 in arena 0, WPrev (when present) in arena 1 with w0Idx at 0 — so a
// subsequent advanceW0 recycles the same way an uninterrupted run would.
func (e *Env) restoreSyncPoints(w0, wPrev []float64) {
	copy(e.w0Arenas[0], w0)
	e.W0 = e.w0Arenas[0]
	e.w0Idx = 0
	if wPrev == nil {
		e.WPrev = nil
		return
	}
	if e.w0Arenas[1] == nil {
		e.w0Arenas[1] = make([]float64, e.D)
	}
	copy(e.w0Arenas[1], wPrev)
	e.WPrev = e.w0Arenas[1]
}

// ForEachWorker runs body(k, Workers[k]) for every worker, concurrently
// when the run's Config.Parallelism and the core budget allow it. Bodies must touch only
// state owned by worker k (its replica, optimizer, drift scratch) and
// index-addressed slots such as states[k]; cross-worker reductions belong
// after the call, in worker order, as in the sequential path. A zero
// Env (tests) runs inline.
func (e *Env) ForEachWorker(body func(k int, w *Worker)) {
	// Sequential fast path: calling body inline avoids building the
	// index-adapter closure, which escapes into par.ForEach and would be
	// the one heap allocation left on the steady-state step.
	if e.width <= 1 || len(e.Workers) <= 1 {
		for i, w := range e.Workers {
			body(i, w)
		}
		return
	}
	par.ForEach(e.width, len(e.Workers), func(i int) { body(i, e.Workers[i]) })
}

// SyncModels performs the expensive model synchronization: an AllReduce
// over the full parameter vectors, leaving every worker holding the
// average model, and advances the (w_t0, w_t−1) bookkeeping.
func (e *Env) SyncModels() {
	e.Fabric.AllReduce("model", e.paramViews)
	e.advanceW0(e.Workers[0].Net.Params())
	e.SyncCount++
}

// GlobalModel writes the current average model w̄ into dst (measurement
// only; not charged as communication). On a distributed fabric this is
// a collective — every process of the cluster must call it at the same
// point of the run, which the replicated session loop guarantees.
func (e *Env) GlobalModel(dst []float64) {
	tensor.Mean(dst, e.Fabric.Gather(e.paramViews)...)
}

// ExactVarianceViaDrift returns Var(w_t), the ground truth the FDA
// estimators bound, through the drift identity Eq. (4): mean‖u‖² − ‖ū‖².
// Tests assert it matches Eq. (2) computed directly. OracleFDA evaluates
// it every step, so the drifts and their mean accumulate in Env scratch
// arenas rather than fresh vectors; the gathered parameters and the same
// fused kernel keep the reduction bit-identical to the pre-fabric
// per-worker loop.
func (e *Env) ExactVarianceViaDrift() float64 {
	all := e.Fabric.Gather(e.paramViews)
	if e.meanDrift == nil {
		e.meanDrift, e.diff = make([]float64, e.D), make([]float64, e.D)
	}
	meanDrift, diff := e.meanDrift, e.diff
	tensor.Zero(meanDrift)
	var meanSq float64
	for _, p := range all {
		sq := tensor.SubThenSquaredNorm(diff, p, e.W0)
		meanSq += sq
		tensor.AXPY(1, diff, meanDrift)
	}
	k := float64(e.Fabric.K())
	meanSq /= k
	tensor.Scale(meanDrift, 1/k)
	return meanSq - tensor.SquaredNorm(meanDrift)
}
