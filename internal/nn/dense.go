package nn

import "repro/internal/tensor"

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

	x   []float64 // the caller's input batch, cached by reference
	y   []float64 // output buffer
	gin []float64 // input-gradient buffer
}

// NewDense returns an out×in fully connected layer.
func NewDense(in, out int, scheme InitScheme) *Dense {
	if in <= 0 || out <= 0 {
		panic("nn: Dense with non-positive dimension")
	}
	return &Dense{in: in, out: out, scheme: scheme}
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

// Forward computes y[s] = W·x[s] + b for the whole batch as one
// tensor.MatVec — W streamed once per eight samples through the register
// tile — followed by the bias: each output is its own row dot product,
// accumulated left to right from +0, plus the bias added last, whatever
// the batch size.
//
//fda:noalloc
func (l *Dense) Forward(x []float64, _ bool) []float64 {
	n := len(x) / l.in
	l.x = x
	l.y = grow(l.y, n*l.out)
	tensor.MatVec(l.y, l.w, x)
	for s := 0; s < n; s++ {
		ys := l.y[s*l.out : (s+1)*l.out]
		tensor.Add(ys, ys, l.b.Data)
	}
	return l.y
}

// Backward accumulates dW += Σ_s g[s] x[s]ᵀ and db += Σ_s g[s] in sample
// order (one pass over each row of dW per four samples, exact-zero
// g[s][o] skipped) and returns dx[s] = Wᵀ g[s].
//
//fda:noalloc
func (l *Dense) Backward(gradOut []float64, needInput bool) []float64 {
	n := len(gradOut) / l.out
	tensor.AddOuter(l.gw, 1, gradOut, l.x)
	for s := 0; s < n; s++ {
		tensor.AXPY(1, gradOut[s*l.out:(s+1)*l.out], l.gb.Data)
	}
	if !needInput {
		return nil
	}
	l.gin = grow(l.gin, n*l.in)
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
// The stream belongs to this layer alone: a batch draws its n·dim mask
// bits sample after sample, which is the order of n single-sample passes
// only while no other layer draws from the same stream in between.
func NewDropout(dim int, rate float64, rng *tensor.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate outside [0,1)")
	}
	return &Dropout{dim: dim, rate: rate, rng: rng}
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

//fda:noalloc
func (l *Dropout) Forward(x []float64, train bool) []float64 {
	l.out = grow(l.out, len(x))
	l.mask = grow(l.mask, len(x))
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

//fda:noalloc
func (l *Dropout) Backward(gradOut []float64, _ bool) []float64 {
	l.gin = grow(l.gin, len(l.mask))
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
