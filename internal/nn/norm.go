package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm is a per-activation batch-normalization layer in streaming
// form: normalization statistics are exponential moving averages updated
// once per training sample (momentum Momentum) — the samples of a batch
// in sample order, each normalized with the statistics as they stand
// right after its own update — and inference uses the running statistics. The
// learnable scale γ and shift β live in the flat parameter vector, so
// they participate in drift, variance and synchronization like any other
// parameter — as in the paper's DenseNet models, which batch-normalize
// throughout.
type BatchNorm struct {
	dim      int
	Momentum float64
	Eps      float64

	gamma, beta   []float64 // parameter views
	gGamma, gBeta []float64 // gradient views

	runMean, runVar []float64
	xhat            []float64 // cached normalized inputs, per sample
	std             []float64 // cached stddev each sample was normalized with
	out             []float64
	gin             []float64
}

// NewBatchNorm returns a batch-normalization layer over dim activations.
func NewBatchNorm(dim int) *BatchNorm {
	if dim <= 0 {
		panic("nn: BatchNorm with non-positive dimension")
	}
	bn := &BatchNorm{
		dim: dim, Momentum: 0.9, Eps: 1e-5,
		runMean: make([]float64, dim),
		runVar:  make([]float64, dim),
	}
	tensor.Fill(bn.runVar, 1)
	return bn
}

func (l *BatchNorm) InDim() int      { return l.dim }
func (l *BatchNorm) OutDim() int     { return l.dim }
func (l *BatchNorm) ParamCount() int { return 2 * l.dim }

func (l *BatchNorm) Bind(params, grads []float64) {
	l.gamma, l.beta = params[:l.dim], params[l.dim:]
	l.gGamma, l.gBeta = grads[:l.dim], grads[l.dim:]
}

func (l *BatchNorm) Init(_ *tensor.RNG) {
	tensor.Fill(l.gamma, 1)
	tensor.Zero(l.beta)
}

// Forward normalizes with running statistics; during training the
// statistics are first updated from the current sample (a streaming EMA
// stand-in for mini-batch statistics).
//
//fda:noalloc
func (l *BatchNorm) Forward(x []float64, train bool) []float64 {
	l.xhat = grow(l.xhat, len(x))
	l.std = grow(l.std, len(x))
	l.out = grow(l.out, len(x))
	for lo := 0; lo < len(x); lo += l.dim {
		xs := x[lo : lo+l.dim]
		std, xhat, out := l.std[lo:lo+l.dim], l.xhat[lo:lo+l.dim], l.out[lo:lo+l.dim]
		if train {
			m := l.Momentum
			for i, v := range xs {
				l.runMean[i] = m*l.runMean[i] + (1-m)*v
				d := v - l.runMean[i]
				l.runVar[i] = m*l.runVar[i] + (1-m)*d*d
			}
		}
		for i, v := range xs {
			std[i] = math.Sqrt(l.runVar[i] + l.Eps)
			xhat[i] = (v - l.runMean[i]) / std[i]
			out[i] = l.gamma[i]*xhat[i] + l.beta[i]
		}
	}
	return l.out
}

// Backward treats the running statistics as constants (the standard
// inference-style gradient, exact for the EMA formulation since each
// sample's contribution to the EMA is O(1−momentum)).
//
//fda:noalloc
func (l *BatchNorm) Backward(gradOut []float64, _ bool) []float64 {
	l.gin = grow(l.gin, len(gradOut))
	for lo := 0; lo < len(gradOut); lo += l.dim {
		g, gin := gradOut[lo:lo+l.dim], l.gin[lo:lo+l.dim]
		std, xhat := l.std[lo:lo+l.dim], l.xhat[lo:lo+l.dim]
		for i := range g {
			l.gGamma[i] += g[i] * xhat[i]
			l.gBeta[i] += g[i]
			gin[i] = g[i] * l.gamma[i] / std[i]
		}
	}
	return l.gin
}

// Sigmoid is the logistic activation layer.
type Sigmoid struct {
	dim int
	out []float64
	gin []float64
}

// NewSigmoid returns a Sigmoid over dim activations.
func NewSigmoid(dim int) *Sigmoid { return &Sigmoid{dim: dim} }

func (l *Sigmoid) InDim() int          { return l.dim }
func (l *Sigmoid) OutDim() int         { return l.dim }
func (l *Sigmoid) ParamCount() int     { return 0 }
func (l *Sigmoid) Bind(_, _ []float64) {}
func (l *Sigmoid) Init(_ *tensor.RNG)  {}

//fda:noalloc
func (l *Sigmoid) Forward(x []float64, _ bool) []float64 {
	l.out = grow(l.out, len(x))
	for i, v := range x {
		l.out[i] = 1 / (1 + math.Exp(-v))
	}
	return l.out
}

//fda:noalloc
func (l *Sigmoid) Backward(gradOut []float64, _ bool) []float64 {
	l.gin = grow(l.gin, len(l.out))
	for i, y := range l.out {
		l.gin[i] = gradOut[i] * y * (1 - y)
	}
	return l.gin
}

// LeakyReLU is max(x, αx) with slope α on the negative side.
type LeakyReLU struct {
	dim   int
	Alpha float64
	in    []float64 // the caller's input batch, cached by reference
	out   []float64
	gin   []float64
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope.
func NewLeakyReLU(dim int, alpha float64) *LeakyReLU {
	if alpha < 0 || alpha >= 1 {
		panic("nn: LeakyReLU slope outside [0,1)")
	}
	return &LeakyReLU{dim: dim, Alpha: alpha}
}

func (l *LeakyReLU) InDim() int          { return l.dim }
func (l *LeakyReLU) OutDim() int         { return l.dim }
func (l *LeakyReLU) ParamCount() int     { return 0 }
func (l *LeakyReLU) Bind(_, _ []float64) {}
func (l *LeakyReLU) Init(_ *tensor.RNG)  {}

//fda:noalloc
func (l *LeakyReLU) Forward(x []float64, _ bool) []float64 {
	l.in = x
	l.out = grow(l.out, len(x))
	for i, v := range x {
		if v > 0 {
			l.out[i] = v
		} else {
			l.out[i] = l.Alpha * v
		}
	}
	return l.out
}

//fda:noalloc
func (l *LeakyReLU) Backward(gradOut []float64, _ bool) []float64 {
	l.gin = grow(l.gin, len(l.in))
	for i, v := range l.in {
		if v > 0 {
			l.gin[i] = gradOut[i]
		} else {
			l.gin[i] = l.Alpha * gradOut[i]
		}
	}
	return l.gin
}
