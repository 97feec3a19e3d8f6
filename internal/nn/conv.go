package nn

import "repro/internal/tensor"

// Conv2D is a 2-D convolution over channel-major volumes (layout
// [c][h][w] flattened), stride 1, with "same" zero padding for odd kernel
// sizes. Weights are stored flat as [outC][inC][kh][kw] followed by one
// bias per output channel.
//
// The passes are direct convolutions over zero-padded planes
// (tensor.ConvPlan, DESIGN.md §7): Forward copies each sample once into
// its padded planes and keeps them for Backward, and each output element
// keeps the operands, rounding steps and order of the scalar direct
// convolution.
type Conv2D struct {
	in     Shape
	outC   int
	k      int // square kernel size, odd
	scheme InitScheme

	w, gw []float64 // outC*inC*k*k weight / gradient views
	b, gb []float64 // outC bias / gradient views

	y   []float64 // output buffer
	gin []float64 // input-gradient buffer

	plan *tensor.ConvPlan
	// xp holds the padded input planes of the last Forward's samples,
	// back to back; it is only ever written inside the borders, which
	// stay +0. Owned by the layer and reused across micro-batches so the
	// steady-state step allocates nothing.
	xp []float64
}

// NewConv2D returns a same-padded stride-1 convolution with a square odd
// kernel of size k, mapping in (H×W×C) to H×W×outC.
func NewConv2D(in Shape, outC, k int, scheme InitScheme) *Conv2D {
	if in.H <= 0 || in.W <= 0 || in.C <= 0 || outC <= 0 {
		panic("nn: Conv2D with non-positive dimension")
	}
	if k <= 0 || k%2 == 0 {
		panic("nn: Conv2D kernel must be positive and odd")
	}
	return &Conv2D{in: in, outC: outC, k: k, scheme: scheme,
		plan: tensor.NewConvPlan(in.H, in.W, k, in.C, outC)}
}

// OutShape returns the output volume (same H, W; outC channels).
func (l *Conv2D) OutShape() Shape { return Shape{H: l.in.H, W: l.in.W, C: l.outC} }

func (l *Conv2D) InDim() int  { return l.in.Size() }
func (l *Conv2D) OutDim() int { return l.OutShape().Size() }

func (l *Conv2D) ParamCount() int { return l.outC*l.in.C*l.k*l.k + l.outC }

func (l *Conv2D) Bind(params, grads []float64) {
	nW := l.outC * l.in.C * l.k * l.k
	l.w, l.b = params[:nW], params[nW:]
	l.gw, l.gb = grads[:nW], grads[nW:]
}

func (l *Conv2D) Init(rng *tensor.RNG) {
	fanIn := l.in.C * l.k * l.k
	fanOut := l.outC * l.k * l.k
	switch l.scheme {
	case HeNormalInit:
		tensor.HeNormal(rng, l.w, fanIn)
	default:
		tensor.GlorotUniform(rng, l.w, fanIn, fanOut)
	}
	tensor.Zero(l.b)
}

// Forward pads each sample once and runs the forward pass on it: per
// output pixel the bias, then the taps in ascending (ic, ki, kj) order,
// taps in the padding contributing an exact +0 — the direct
// convolution's order, so the result is bit-identical to the scalar
// reference. A batch shares the weights and nothing else.
//
//fda:noalloc
func (l *Conv2D) Forward(x []float64, _ bool) []float64 {
	inDim, outDim, padded := l.InDim(), l.OutDim(), l.plan.PaddedLen()
	n := len(x) / inDim
	l.y = grow(l.y, n*outDim)
	l.xp = grow(l.xp, n*padded)
	for s := 0; s < n; s++ {
		xp := l.xp[s*padded : (s+1)*padded]
		l.plan.Pad(xp, x[s*inDim:(s+1)*inDim])
		l.plan.Forward(l.y[s*outDim:(s+1)*outDim], xp, l.w, l.b)
	}
	return l.y
}

// Backward consumes the padded planes of the last Forward, sample after
// sample so that every gradient element receives its samples in order:
// the bias gradient is a plane sum, the weight gradient one dot per
// (output channel, tap) from +0, added once, and the input gradient is
// stored whole per sample.
//
//fda:noalloc
func (l *Conv2D) Backward(gradOut []float64, needInput bool) []float64 {
	inDim, outDim, padded := l.InDim(), l.OutDim(), l.plan.PaddedLen()
	n := len(gradOut) / outDim
	if needInput {
		l.gin = grow(l.gin, n*inDim)
	}
	for s := 0; s < n; s++ {
		g := gradOut[s*outDim : (s+1)*outDim]
		l.plan.WeightGrad(l.gw, l.gb, l.xp[s*padded:(s+1)*padded], g)
		if needInput {
			l.plan.InputGrad(l.gin[s*inDim:(s+1)*inDim], g, l.w)
		}
	}
	if !needInput {
		return nil
	}
	return l.gin
}

// MaxPool2D is a non-overlapping max pooling layer with a square window.
// Input dimensions must be divisible by the window size. Pooling treats
// every channel plane alone, so a batch of n samples is simply n·C planes
// back to back (likewise GlobalAvgPool).
type MaxPool2D struct {
	in   Shape
	size int

	arg []int // argmax index into the input batch per output element
	y   []float64
	gin []float64
}

// NewMaxPool2D returns a size×size max pool over in.
func NewMaxPool2D(in Shape, size int) *MaxPool2D {
	if size <= 0 || in.H%size != 0 || in.W%size != 0 {
		panic("nn: MaxPool2D window must evenly divide input")
	}
	return &MaxPool2D{in: in, size: size}
}

// OutShape returns the pooled volume.
func (l *MaxPool2D) OutShape() Shape {
	return Shape{H: l.in.H / l.size, W: l.in.W / l.size, C: l.in.C}
}

func (l *MaxPool2D) InDim() int          { return l.in.Size() }
func (l *MaxPool2D) OutDim() int         { return l.OutShape().Size() }
func (l *MaxPool2D) ParamCount() int     { return 0 }
func (l *MaxPool2D) Bind(_, _ []float64) {}
func (l *MaxPool2D) Init(_ *tensor.RNG)  {}

//fda:noalloc
func (l *MaxPool2D) Forward(x []float64, _ bool) []float64 {
	h, w := l.in.H, l.in.W
	oh, ow := h/l.size, w/l.size
	planes := len(x) / (h * w)
	l.y = grow(l.y, planes*oh*ow)
	l.arg = grow(l.arg, planes*oh*ow)
	if l.size == 2 {
		// Every pooling layer of the model zoo: the micro-batch's planes
		// in one call, with the generic scan's tie and NaN handling.
		tensor.MaxPool2x2(l.y, l.arg, x[:planes*h*w], w)
		return l.y
	}
	for c := 0; c < planes; c++ {
		xin := x[c*h*w:]
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				bestIdx := (i*l.size)*w + j*l.size
				best := xin[bestIdx]
				for di := 0; di < l.size; di++ {
					for dj := 0; dj < l.size; dj++ {
						idx := (i*l.size+di)*w + j*l.size + dj
						if xin[idx] > best {
							best = xin[idx]
							bestIdx = idx
						}
					}
				}
				o := c*oh*ow + i*ow + j
				l.y[o] = best
				l.arg[o] = c*h*w + bestIdx
			}
		}
	}
	return l.y
}

//fda:noalloc
func (l *MaxPool2D) Backward(gradOut []float64, _ bool) []float64 {
	l.gin = grow(l.gin, len(gradOut)*l.size*l.size)
	tensor.Zero(l.gin)
	for o, src := range l.arg {
		l.gin[src] += gradOut[o]
	}
	return l.gin
}

// GlobalAvgPool averages each channel plane to a single value, as the
// DenseNet-style models do before their classifier head.
type GlobalAvgPool struct {
	in  Shape
	y   []float64
	gin []float64
}

// NewGlobalAvgPool returns a global average pool over in.
func NewGlobalAvgPool(in Shape) *GlobalAvgPool { return &GlobalAvgPool{in: in} }

func (l *GlobalAvgPool) InDim() int          { return l.in.Size() }
func (l *GlobalAvgPool) OutDim() int         { return l.in.C }
func (l *GlobalAvgPool) ParamCount() int     { return 0 }
func (l *GlobalAvgPool) Bind(_, _ []float64) {}
func (l *GlobalAvgPool) Init(_ *tensor.RNG)  {}

//fda:noalloc
func (l *GlobalAvgPool) Forward(x []float64, _ bool) []float64 {
	plane := l.in.H * l.in.W
	l.y = grow(l.y, len(x)/plane)
	for c := range l.y {
		// Left-to-right fused kernel: bit-identical to the raw
		// accumulation loop it replaced (fdavet/floatsum).
		l.y[c] = tensor.Sum(x[c*plane:(c+1)*plane]) / float64(plane)
	}
	return l.y
}

//fda:noalloc
func (l *GlobalAvgPool) Backward(gradOut []float64, _ bool) []float64 {
	plane := l.in.H * l.in.W
	inv := 1 / float64(plane)
	l.gin = grow(l.gin, len(gradOut)*plane)
	for c, g := range gradOut {
		tensor.Fill(l.gin[c*plane:(c+1)*plane], g*inv)
	}
	return l.gin
}
