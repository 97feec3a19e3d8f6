// Package opt implements the stochastic optimizers used by the paper's
// experiments: SGD with Nesterov momentum, Adam and AdamW for local
// optimization, and the same algorithms reused as *server* optimizers by
// the FedOpt baselines (FedAvgM = server SGD with classical momentum,
// FedAdam = server Adam) applied to pseudo-gradients.
//
// All optimizers mutate a flat parameter vector in place given a gradient
// vector of the same length, matching the flat-model representation in
// internal/nn.
package opt

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters in place from a gradient.
type Optimizer interface {
	// Step applies one update. params and grads must have equal lengths,
	// constant across calls (state buffers are sized on first use).
	Step(params, grads []float64)
	// Reset clears internal state (moments, step counters). A watch
	// stays set.
	Reset()
	// Name identifies the optimizer for logs and experiment tables.
	Name() string
	// Watch makes every later Step also report the drift of the updated
	// parameters p from the vector *w0 points to, read anew at each Step:
	// out[0] = ‖p − *w0‖² and out[1] = ⟨xi, p − *w0⟩, each summed left to
	// right, and *reports counts the Steps that wrote them. Adam computes
	// both inside its update sweep, so the watcher costs no second pass
	// over the model. A nil w0 removes the watch. Every implementation
	// must honour it: LinearFDA reads its state nowhere else, and a
	// session fails the run when a watched Step leaves the count where it
	// was.
	Watch(w0 *[]float64, xi, out []float64, reports *int)
}

// watch is the state behind Optimizer.Watch; every optimizer embeds it.
type watch struct {
	w0      *[]float64
	xi, out []float64
	reports *int
}

// Watch implements Optimizer.
func (w *watch) Watch(w0 *[]float64, xi, out []float64, n *int) { *w = watch{w0, xi, out, n} }

// target returns the watched w0 and xi, nil when no watch is set.
func (w *watch) target() (w0, xi []float64) {
	if w.w0 == nil {
		return nil, nil
	}
	return *w.w0, w.xi
}

// report writes the drift of p after a Step that has no fused sweep of
// its own: one read-only pass, summed as Adam's watched sweep sums.
func (w *watch) report(p []float64) {
	if w0, xi := w.target(); w0 != nil {
		w.out[0], w.out[1] = tensor.DriftSums(p, w0, xi)
		*w.reports++
	}
}

// Factory builds a fresh optimizer; each simulated worker gets its own
// instance so state (momentum, Adam moments) stays local, as it would on
// real worker hardware.
type Factory func() Optimizer

// Snapshotter is implemented by optimizers whose Step depends on
// accumulated state (moments, step counters). Session checkpointing uses
// it to capture and restore that state so a resumed run replays the exact
// update sequence. StateSnapshot returns views into live buffers — the
// caller must copy before the optimizer steps again. A never-stepped
// optimizer returns nil vectors of the declared shape; RestoreState
// accepts either nil (state not yet materialized) or full-length vectors.
type Snapshotter interface {
	// StateSnapshot returns the optimizer's state vectors and counters.
	// The slice shapes are fixed per optimizer type.
	StateSnapshot() (vecs [][]float64, counters []uint64)
	// RestoreState overwrites the optimizer's state with a snapshot
	// previously returned by StateSnapshot on an optimizer of the same
	// type and dimension.
	RestoreState(vecs [][]float64, counters []uint64) error
}

// Momentum is SGD with classical or Nesterov momentum and optional L2
// weight decay. With Nesterov=true and Mu=0.9 it matches the paper's
// "SGD-NM" local optimizer for the DenseNet experiments; with Mu=0 it is
// plain SGD (the velocity is the gradient).
type Momentum struct {
	LR          float64
	Mu          float64
	Nesterov    bool
	WeightDecay float64

	velocity []float64
	watch
}

// NewSGDNesterov returns a Nesterov-momentum factory (the paper's SGD-NM).
func NewSGDNesterov(lr, mu, weightDecay float64) Factory {
	return func() Optimizer {
		return &Momentum{LR: lr, Mu: mu, Nesterov: true, WeightDecay: weightDecay}
	}
}

// Step implements Optimizer. The velocity update v ← µv + g is the
// fused ScaleAdd kernel; the parameter update is an AXPY in the classical
// case and a fused loop for the Nesterov look-ahead and weight-decay
// variants. Element updates are independent, so splitting the loop into
// kernel sweeps leaves every result bit unchanged.
func (o *Momentum) Step(params, grads []float64) {
	checkLens(params, grads)
	if o.velocity == nil {
		o.velocity = make([]float64, len(params))
	}
	lr, mu, wd := o.LR, o.Mu, o.WeightDecay
	v := o.velocity
	switch {
	case wd == 0 && !o.Nesterov:
		tensor.ScaleAdd(v, mu, grads)
		tensor.AXPY(-lr, v, params)
	case wd == 0: // Nesterov
		for i, g := range grads {
			vi := mu*v[i] + g
			v[i] = vi
			// Nesterov look-ahead: effective update uses g + mu*v.
			params[i] -= lr * (g + mu*vi)
		}
	case !o.Nesterov:
		for i, g := range grads {
			g += wd * params[i]
			vi := mu*v[i] + g
			v[i] = vi
			params[i] -= lr * vi
		}
	default:
		for i, g := range grads {
			g += wd * params[i]
			vi := mu*v[i] + g
			v[i] = vi
			params[i] -= lr * (g + mu*vi)
		}
	}
	o.report(params)
}

// Reset implements Optimizer.
func (o *Momentum) Reset() { o.velocity = nil }

// StateSnapshot implements Snapshotter: one velocity vector (nil until
// the first Step) and no counters.
func (o *Momentum) StateSnapshot() ([][]float64, []uint64) {
	return [][]float64{o.velocity}, nil
}

// RestoreState implements Snapshotter.
func (o *Momentum) RestoreState(vecs [][]float64, counters []uint64) error {
	if len(vecs) != 1 || len(counters) != 0 {
		return fmt.Errorf("opt: momentum snapshot shape %d/%d", len(vecs), len(counters))
	}
	o.velocity = cloneOrNil(vecs[0])
	return nil
}

// Name implements Optimizer.
func (o *Momentum) Name() string {
	if o.Nesterov {
		return "SGD-NM"
	}
	return "SGD-M"
}

// Adam implements Kingma & Ba's Adam with bias correction; a nonzero
// WeightDecay makes it AdamW (Loshchilov & Hutter), whose decay is
// applied directly to the weights rather than added to the gradient.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64 // decoupled (AdamW) decay; zero for plain Adam

	m, v []float64
	t    int
	watch
}

// NewAdam returns an Adam factory with the default hyper-parameters from
// the paper's references (lr=1e-3, β1=0.9, β2=0.999, ε=1e-7 as in Keras).
func NewAdam(lr float64) Factory {
	return func() Optimizer {
		return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-7}
	}
}

// NewAdamW returns an AdamW factory (decoupled weight decay), the paper's
// optimizer for the ConvNeXt fine-tuning experiment.
func NewAdamW(lr, weightDecay float64) Factory {
	return func() Optimizer {
		return &Adam{
			LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-7,
			WeightDecay: weightDecay,
		}
	}
}

// Step implements Optimizer. A watch rides the update sweep
// (tensor.AdamStep).
func (o *Adam) Step(params, grads []float64) {
	checkLens(params, grads)
	if o.m == nil {
		o.m = make([]float64, len(params))
		o.v = make([]float64, len(params))
	}
	o.t++
	b1c := 1 - math.Pow(o.Beta1, float64(o.t))
	b2c := 1 - math.Pow(o.Beta2, float64(o.t))
	// The element loop is the tensor.AdamStep kernel (vectorized
	// bit-identically where the CPU allows).
	w0, xi := o.target()
	sq, dot := tensor.AdamStep(params, grads, o.m, o.v, o.Beta1, o.Beta2, o.LR, o.Eps, b1c, b2c, o.WeightDecay, w0, xi)
	if w0 != nil {
		o.out[0], o.out[1] = sq, dot
		*o.reports++
	}
}

// Reset implements Optimizer.
func (o *Adam) Reset() {
	o.m, o.v = nil, nil
	o.t = 0
}

// StateSnapshot implements Snapshotter: the two moment vectors (nil until
// the first Step) and the bias-correction step counter.
func (o *Adam) StateSnapshot() ([][]float64, []uint64) {
	return [][]float64{o.m, o.v}, []uint64{uint64(o.t)}
}

// RestoreState implements Snapshotter.
func (o *Adam) RestoreState(vecs [][]float64, counters []uint64) error {
	if len(vecs) != 2 || len(counters) != 1 {
		return fmt.Errorf("opt: adam snapshot shape %d/%d", len(vecs), len(counters))
	}
	if (len(vecs[0]) == 0) != (len(vecs[1]) == 0) {
		return fmt.Errorf("opt: adam snapshot has one moment of length %d and one of length %d", len(vecs[0]), len(vecs[1]))
	}
	o.m = cloneOrNil(vecs[0])
	o.v = cloneOrNil(vecs[1])
	o.t = int(counters[0])
	return nil
}

// cloneOrNil copies v, mapping empty to nil (state not yet materialized).
func cloneOrNil(v []float64) []float64 {
	if len(v) == 0 {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Name implements Optimizer.
func (o *Adam) Name() string {
	if o.WeightDecay != 0 {
		return "AdamW"
	}
	return "Adam"
}

func checkLens(params, grads []float64) {
	if len(params) != len(grads) {
		panic("opt: params/grads length mismatch")
	}
}
