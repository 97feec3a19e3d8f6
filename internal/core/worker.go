package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/compress"
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
// ‖u‖², fused into one sweep (every FDA state computation needs both).
// The squared norm accumulates left to right, bit-identical to
// SquaredNorm(Drift(w0)).
func (w *Worker) DriftSquaredNorm(w0 []float64) ([]float64, float64) {
	sq := tensor.SubThenSquaredNorm(w.drift, w.Net.Params(), w0)
	return w.drift, sq
}

// DriftState recomputes the drift and returns LinearFDA's local state
// (‖u‖², ⟨ξ, u⟩) from the same single sweep — two independent
// left-to-right sums, bit-identical to DriftSquaredNorm followed by
// tensor.Dot(xi, u).
//
//fda:noalloc
func (w *Worker) DriftState(w0, xi []float64) (sq, dot float64) {
	return tensor.SubThenSquaredNormDot(w.drift, w.Net.Params(), w0, xi)
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
	// Codec, when non-nil, compresses the drifts exchanged during model
	// synchronization (see Config.SyncCodec). FDA composes with model
	// compression because it only changes when synchronization happens.
	Codec compress.Codec

	paramViews [][]float64 // local workers' parameter slices, for AllReduce
	codecBuf   []float64
	codecMean  []float64
	encoded    [][]byte // distributed compressed sync: encoded local drifts
	// width caps ForEachWorker's goroutines: Config.Parallelism resolved
	// by par.Resolve. The zero Env's 0 runs inline.
	width int

	// w0Arenas double-buffers the (W0, WPrev) pair: at most two
	// synchronization-point models are live at once, so each sync writes
	// the new global model into the arena currently holding the retiring
	// WPrev instead of allocating. w0Idx tracks which arena W0 occupies.
	w0Arenas [2][]float64
	w0Idx    int
	// driftScratch and driftScratch2 back the measurement helpers
	// (ExactVariance and the drift-identity variant), which strategies
	// may evaluate every step.
	driftScratch  []float64
	driftScratch2 []float64
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

// scratchD returns the Env's lazily sized d-length measurement scratch.
func (e *Env) scratchD() []float64 {
	if e.driftScratch == nil {
		e.driftScratch = make([]float64, e.D)
	}
	return e.driftScratch
}

// scratchD2 is the second measurement scratch (per-rank drift while
// scratchD accumulates the mean).
func (e *Env) scratchD2() []float64 {
	if e.driftScratch2 == nil {
		e.driftScratch2 = make([]float64, e.D)
	}
	return e.driftScratch2
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
// average model, and advances the (w_t0, w_t−1) bookkeeping. When a codec
// is configured, each worker's drift is compressed before aggregation and
// the compressed wire size is charged instead of the dense model.
func (e *Env) SyncModels() {
	if e.Codec != nil {
		e.syncCompressed()
		return
	}
	e.Fabric.AllReduce("model", e.paramViews)
	e.advanceW0(e.Workers[0].Net.Params())
	e.SyncCount++
}

// syncCompressed implements compressed synchronization: workers exchange
// codec-compressed drifts; the new global model is w_t0 plus the mean of
// the reconstructed drifts. The residual each worker keeps (its true
// parameters minus the reconstruction) is discarded, matching plain
// (non-error-feedback) compressed averaging.
//
// When the fabric is distributed (this process owns a strict subset of
// ranks), the drifts genuinely travel in their compress wire encoding
// through ExchangeBytes and every process reconstructs the mean from
// the decoded payloads. Decode(Encode(u)) is bit-equal to the
// in-process Roundtrip(u) reconstruction (the compress wire contract),
// so the resulting global model is bit-identical to the in-process
// fabrics'.
func (e *Env) syncCompressed() {
	if e.codecBuf == nil {
		e.codecBuf = make([]float64, e.D)
		e.codecMean = make([]float64, e.D)
	}
	tensor.Zero(e.codecMean)
	var wire int64
	if len(e.Workers) == e.Fabric.K() {
		// In-process: reconstruct each drift locally, no bytes needed.
		for _, w := range e.Workers {
			u := w.Drift(e.W0)
			wire += int64(e.Codec.Roundtrip(e.codecBuf, u))
			tensor.AXPY(1, e.codecBuf, e.codecMean)
		}
	} else {
		wire = e.exchangeCompressedDrifts()
	}
	tensor.Scale(e.codecMean, 1/float64(e.Fabric.K()))
	// New global model w_t0 + mean(û), assembled in the codec scratch and
	// copied into the W0 arena by advanceW0.
	tensor.Add(e.codecMean, e.W0, e.codecMean)
	global := e.codecMean
	e.ForEachWorker(func(_ int, w *Worker) { w.Net.SetParams(global) })
	e.advanceW0(global)
	e.SyncCount++
	// Each worker uploads its compressed drift and downloads the
	// aggregate; charge 2× the summed compressed payloads. All codecs
	// price by vector length alone, so every process computes the same
	// cluster total from its local drifts.
	e.Fabric.Meter().Charge("model", 2*wire)
	if tt, ok := e.Fabric.(comm.TransferTimer); ok {
		tt.TransferDone(2 * wire / int64(e.Fabric.K()))
	}
}

// exchangeCompressedDrifts runs the distributed half of syncCompressed:
// encode local drifts, exchange the framed payloads, decode all K in
// rank order into the accumulating mean. Returns the cluster-total
// charged wire size.
func (e *Env) exchangeCompressedDrifts() int64 {
	wc, ok := e.Codec.(compress.WireCodec)
	if !ok {
		panic(fmt.Sprintf("core: distributed compressed sync needs a wire codec, %s has no encoding", e.Codec.Name()))
	}
	var perWorker int64
	e.encoded = e.encoded[:0]
	for _, w := range e.Workers {
		u := w.Drift(e.W0)
		// Cost-model size of one drift (length-dependent only, so it
		// prices every rank's payload); the real frame travels below.
		perWorker = int64(e.Codec.Roundtrip(e.codecBuf, u))
		e.encoded = append(e.encoded, wc.Encode(u))
	}
	parts := e.Fabric.ExchangeBytes("model", e.encoded)
	for r, p := range parts {
		if err := wc.Decode(e.codecBuf, p); err != nil {
			panic(fmt.Sprintf("core: decoding rank %d compressed drift: %v", r, err))
		}
		tensor.AXPY(1, e.codecBuf, e.codecMean)
	}
	return perWorker * int64(e.Fabric.K())
}

// GlobalModel writes the current average model w̄ into dst (measurement
// only; not charged as communication). On a distributed fabric this is
// a collective — every process of the cluster must call it at the same
// point of the run, which the replicated session loop guarantees.
func (e *Env) GlobalModel(dst []float64) {
	tensor.Mean(dst, e.Fabric.Gather(e.paramViews)...)
}

// ExactVariance returns Var(w_t) computed directly from Eq. (2) — the
// ground truth that the FDA estimators bound. Used by tests and the
// oracle ablation; a real deployment cannot compute it cheaply.
func (e *Env) ExactVariance() float64 {
	all := e.Fabric.Gather(e.paramViews)
	mean := make([]float64, e.D)
	tensor.Mean(mean, all...)
	var s float64
	diff := make([]float64, e.D)
	for _, p := range all {
		s += tensor.SubThenSquaredNorm(diff, p, mean)
	}
	return s / float64(e.Fabric.K())
}

// ExactVarianceViaDrift returns Var(w_t) through the drift identity
// Eq. (4): mean‖u‖² − ‖ū‖². Tests assert it matches ExactVariance.
// OracleFDA evaluates it every step, so the drifts and their mean
// accumulate in Env scratch arenas rather than fresh vectors; the
// gathered parameters and the same fused kernel keep the reduction
// bit-identical to the pre-fabric per-worker loop.
func (e *Env) ExactVarianceViaDrift() float64 {
	all := e.Fabric.Gather(e.paramViews)
	meanDrift := e.scratchD()
	diff := e.scratchD2()
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
