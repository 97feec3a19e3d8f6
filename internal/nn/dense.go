package nn

import (
	"math"

	"repro/internal/tensor"
)

// exp is math.Exp; aliased so activation code reads compactly.
func exp(x float64) float64 { return math.Exp(x) }

// InitScheme selects the weight initialization for parameterized layers,
// matching the paper's model settings (Glorot uniform for LeNet-5/VGG16*,
// He normal for the DenseNets).
type InitScheme int

const (
	// GlorotUniformInit draws from U(±sqrt(6/(fanIn+fanOut))).
	GlorotUniformInit InitScheme = iota
	// HeNormalInit draws from N(0, 2/fanIn).
	HeNormalInit
)

// Dense is a fully connected layer: out = W·x + b with W of shape
// out×in viewed over the flat parameter vector.
type Dense struct {
	in, out int
	scheme  InitScheme

	w, b   *tensor.Mat // parameter views: w is out×in, b is 1×out
	gw, gb *tensor.Mat // gradient views, same shapes

	x   []float64 // cached input
	y   []float64 // output buffer
	gin []float64 // input-gradient buffer
}

// NewDense returns an out×in fully connected layer.
func NewDense(in, out int, scheme InitScheme) *Dense {
	if in <= 0 || out <= 0 {
		panic("nn: Dense with non-positive dimension")
	}
	return &Dense{
		in: in, out: out, scheme: scheme,
		x: make([]float64, in), y: make([]float64, out), gin: make([]float64, in),
	}
}

func (l *Dense) InDim() int      { return l.in }
func (l *Dense) OutDim() int     { return l.out }
func (l *Dense) ParamCount() int { return l.out*l.in + l.out }

func (l *Dense) Bind(params, grads []float64) {
	nW := l.out * l.in
	l.w = tensor.MatFrom(l.out, l.in, params[:nW])
	l.b = tensor.MatFrom(1, l.out, params[nW:])
	l.gw = tensor.MatFrom(l.out, l.in, grads[:nW])
	l.gb = tensor.MatFrom(1, l.out, grads[nW:])
}

func (l *Dense) Init(rng *tensor.RNG) {
	switch l.scheme {
	case HeNormalInit:
		tensor.HeNormal(rng, l.w.Data, l.in)
	default:
		tensor.GlorotUniform(rng, l.w.Data, l.in, l.out)
	}
	tensor.Zero(l.b.Data)
}

// Forward computes y = W·x + b four rows per sweep of x (tensor.Dot4,
// then single rows for out mod 4): each output is its own row dot
// product, accumulated left to right, plus the bias added last — exactly
// the operation order of MatVec followed by a bias Add, so results are
// bit-identical to the two-pass reference. Four rows at once give the
// kernel four independent accumulators where a lone Dot has one chain.
func (l *Dense) Forward(x []float64, _ bool) []float64 {
	copy(l.x, x)
	w, b, y := l.w, l.b.Data, l.y
	i := 0
	for ; i+4 <= l.out; i += 4 {
		s0, s1, s2, s3 := tensor.Dot4(x, w.Row(i), w.Row(i+1), w.Row(i+2), w.Row(i+3))
		y[i], y[i+1], y[i+2], y[i+3] = s0+b[i], s1+b[i+1], s2+b[i+2], s3+b[i+3]
	}
	for ; i < l.out; i++ {
		y[i] = tensor.Dot(w.Row(i), x) + b[i]
	}
	return l.y
}

func (l *Dense) Backward(gradOut []float64) []float64 {
	// dW += g xᵀ, db += g, dx = Wᵀ g.
	tensor.AddOuter(l.gw, 1, gradOut, l.x)
	tensor.AXPY(1, gradOut, l.gb.Data)
	tensor.MatTVec(l.gin, l.w, gradOut)
	return l.gin
}

// Dropout zeroes each activation with probability Rate at training time
// and scales the survivors by 1/(1−Rate) (inverted dropout), so inference
// is the identity. The paper adds dropout 0.2 to the DenseNet models.
type Dropout struct {
	dim  int
	rate float64
	rng  *tensor.RNG
	mask []bool
	out  []float64
	gin  []float64
}

// NewDropout returns a dropout layer with the given drop rate in [0, 1).
// The rng drives the per-step masks; giving each worker's network its own
// stream keeps workers' stochasticity independent, as on real hardware.
func NewDropout(dim int, rate float64, rng *tensor.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate outside [0,1)")
	}
	return &Dropout{
		dim: dim, rate: rate, rng: rng,
		mask: make([]bool, dim), out: make([]float64, dim), gin: make([]float64, dim),
	}
}

// RNGState exposes the mask stream position for checkpointing.
func (l *Dropout) RNGState() uint64 { return l.rng.State() }

// SetRNGState rewinds the mask stream to a captured position.
func (l *Dropout) SetRNGState(s uint64) { l.rng.SetState(s) }

func (l *Dropout) InDim() int          { return l.dim }
func (l *Dropout) OutDim() int         { return l.dim }
func (l *Dropout) ParamCount() int     { return 0 }
func (l *Dropout) Bind(_, _ []float64) {}
func (l *Dropout) Init(_ *tensor.RNG)  {}

func (l *Dropout) Forward(x []float64, train bool) []float64 {
	if !train || l.rate == 0 {
		copy(l.out, x)
		// Mark mask pass-through so a Backward after eval Forward is sane.
		for i := range l.mask {
			l.mask[i] = true
		}
		return l.out
	}
	keep := 1 - l.rate
	scale := 1 / keep
	for i, v := range x {
		if l.rng.Float64() < keep {
			l.mask[i] = true
			l.out[i] = v * scale
		} else {
			l.mask[i] = false
			l.out[i] = 0
		}
	}
	return l.out
}

func (l *Dropout) Backward(gradOut []float64) []float64 {
	scale := 1 / (1 - l.rate)
	if l.rate == 0 {
		scale = 1
	}
	for i, keep := range l.mask {
		if keep {
			l.gin[i] = gradOut[i] * scale
		} else {
			l.gin[i] = 0
		}
	}
	return l.gin
}
