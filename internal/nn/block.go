package nn

import "repro/internal/tensor"

// AvgPool2D is a non-overlapping average pooling layer with a square
// window (DenseNet transition layers use average pooling).
type AvgPool2D struct {
	in   Shape
	size int
	y    []float64
	gin  []float64
}

// NewAvgPool2D returns a size×size average pool over in. Input
// dimensions must be divisible by the window size.
func NewAvgPool2D(in Shape, size int) *AvgPool2D {
	if size <= 0 || in.H%size != 0 || in.W%size != 0 {
		panic("nn: AvgPool2D window must evenly divide input")
	}
	return &AvgPool2D{in: in, size: size}
}

// OutShape returns the pooled volume.
func (l *AvgPool2D) OutShape() Shape {
	return Shape{H: l.in.H / l.size, W: l.in.W / l.size, C: l.in.C}
}

func (l *AvgPool2D) InDim() int          { return l.in.Size() }
func (l *AvgPool2D) OutDim() int         { return l.OutShape().Size() }
func (l *AvgPool2D) ParamCount() int     { return 0 }
func (l *AvgPool2D) Bind(_, _ []float64) {}
func (l *AvgPool2D) Init(_ *tensor.RNG)  {}

//fda:noalloc
func (l *AvgPool2D) Forward(x []float64, _ bool) []float64 {
	h, w := l.in.H, l.in.W
	oh, ow := h/l.size, w/l.size
	inv := 1 / float64(l.size*l.size)
	planes := len(x) / (h * w)
	l.y = grow(l.y, planes*oh*ow)
	for c := 0; c < planes; c++ {
		xin := x[c*h*w:]
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				var s float64
				for di := 0; di < l.size; di++ {
					for dj := 0; dj < l.size; dj++ {
						//fda:allow(floatsum, fixed-order size×size pooling window over strided taps; not a contiguous vector reduction a kernel could replace)
						s += xin[(i*l.size+di)*w+j*l.size+dj]
					}
				}
				l.y[c*oh*ow+i*ow+j] = s * inv
			}
		}
	}
	return l.y
}

//fda:noalloc
func (l *AvgPool2D) Backward(gradOut []float64, _ bool) []float64 {
	h, w := l.in.H, l.in.W
	oh, ow := h/l.size, w/l.size
	inv := 1 / float64(l.size*l.size)
	planes := len(gradOut) / (oh * ow)
	l.gin = grow(l.gin, planes*h*w)
	for c := 0; c < planes; c++ {
		gin := l.gin[c*h*w:]
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				g := gradOut[c*oh*ow+i*ow+j] * inv
				for di := 0; di < l.size; di++ {
					for dj := 0; dj < l.size; dj++ {
						gin[(i*l.size+di)*w+j*l.size+dj] = g
					}
				}
			}
		}
	}
	return l.gin
}

// DenseBlock is the defining DenseNet connectivity pattern: an inner
// layer's output is concatenated channel-wise with its input, so features
// accumulate across depth. The inner layer must preserve spatial
// dimensions (for example a same-padded Conv2D followed by an
// activation); the block's output has In.C + growth channels, where
// growth is the inner layer's channel count.
type DenseBlock struct {
	in    Shape
	inner Layer // Shape in → Shape{in.H, in.W, growth}
	grow  int

	out    []float64
	gin    []float64
	gInner []float64 // the inner layer's share of gradOut, packed per sample
}

// NewDenseBlock wraps inner, whose output volume must match the input
// spatially. growth is the inner output's channel count.
func NewDenseBlock(in Shape, inner Layer, growth int) *DenseBlock {
	if inner.InDim() != in.Size() {
		panic("nn: DenseBlock inner input mismatch")
	}
	if inner.OutDim() != in.H*in.W*growth {
		panic("nn: DenseBlock inner must map to H×W×growth")
	}
	return &DenseBlock{in: in, inner: inner, grow: growth}
}

// OutShape returns the concatenated volume.
func (b *DenseBlock) OutShape() Shape {
	return Shape{H: b.in.H, W: b.in.W, C: b.in.C + b.grow}
}

func (b *DenseBlock) InDim() int      { return b.in.Size() }
func (b *DenseBlock) OutDim() int     { return b.OutShape().Size() }
func (b *DenseBlock) ParamCount() int { return b.inner.ParamCount() }

func (b *DenseBlock) Bind(params, grads []float64) { b.inner.Bind(params, grads) }
func (b *DenseBlock) Init(rng *tensor.RNG)         { b.inner.Init(rng) }

//fda:noalloc
func (b *DenseBlock) Forward(x []float64, train bool) []float64 {
	// Channel-major layout makes concatenation a pair of copies per
	// sample: the passthrough channels first, the new features after.
	in, add := b.in.Size(), b.inner.OutDim()
	n := len(x) / in
	feat := b.inner.Forward(x, train)
	b.out = grow(b.out, n*(in+add))
	for s := 0; s < n; s++ {
		o := b.out[s*(in+add) : (s+1)*(in+add)]
		copy(o[:in], x[s*in:(s+1)*in])
		copy(o[in:], feat[s*add:(s+1)*add])
	}
	return b.out
}

//fda:noalloc
func (b *DenseBlock) Backward(gradOut []float64, needInput bool) []float64 {
	// Gradient w.r.t. the input is the passthrough part plus the inner
	// layer's backpropagated gradient, fused into one sweep per sample.
	in, add := b.in.Size(), b.inner.OutDim()
	n := len(gradOut) / (in + add)
	b.gInner = grow(b.gInner, n*add)
	for s := 0; s < n; s++ {
		copy(b.gInner[s*add:(s+1)*add], gradOut[s*(in+add)+in:(s+1)*(in+add)])
	}
	innerGrad := b.inner.Backward(b.gInner, needInput)
	if !needInput {
		return nil
	}
	b.gin = grow(b.gin, n*in)
	for s := 0; s < n; s++ {
		tensor.AXPYTo(b.gin[s*in:(s+1)*in], 1, innerGrad[s*in:(s+1)*in], gradOut[s*(in+add):s*(in+add)+in])
	}
	return b.gin
}
