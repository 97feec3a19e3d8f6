package nn

import "repro/internal/tensor"

// Conv2D is a 2-D convolution over channel-major volumes (layout
// [c][h][w] flattened), stride 1, with "same" zero padding for odd kernel
// sizes. Weights are stored flat as [outC][inC][kh][kw] followed by one
// bias per output channel.
type Conv2D struct {
	in     Shape
	outC   int
	k      int // square kernel size, odd
	scheme InitScheme

	w, gw []float64 // outC*inC*k*k weight / gradient views
	b, gb []float64 // outC bias / gradient views

	y   []float64 // output buffer
	gin []float64 // input-gradient buffer

	// im2col scratch, owned by the layer and reused across micro-batches
	// so the steady-state step allocates nothing. cols holds one
	// (inC·k·k)×(H·W) patch matrix per sample of the last Forward — row r
	// holds, for every output pixel, the input value under kernel tap r
	// (zero where the tap falls outside the image); Backward consumes it
	// in place of a cached input. gcol and gcol2 are plane-length rows of
	// the patch-gradient for a pair of taps, scattered back into gin tap
	// by tap.
	cols  []float64
	gcol  []float64
	gcol2 []float64
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
	l := &Conv2D{in: in, outC: outC, k: k, scheme: scheme}
	l.gcol = make([]float64, in.H*in.W)
	l.gcol2 = make([]float64, in.H*in.W)
	return l
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

// im2col lowers one sample x into its patch matrix: row r = (ic, ki, kj)
// (the weight layout) holds, pixel by pixel, the input value that kernel
// tap touches, with zeros where the tap falls into the padding. Boundary
// clipping is computed once per tap here instead of once per (tap, output
// channel) as in a direct convolution.
func (l *Conv2D) im2col(cols, x []float64) {
	h, w, inC := l.in.H, l.in.W, l.in.C
	pad := l.k / 2
	plane := h * w
	r := 0
	for ic := 0; ic < inC; ic++ {
		xin := x[ic*plane : (ic+1)*plane]
		for ki := 0; ki < l.k; ki++ {
			for kj := 0; kj < l.k; kj++ {
				row := cols[r*plane : (r+1)*plane]
				di, dj := ki-pad, kj-pad
				iLo, iHi := max(0, -di), min(h, h-di)
				jLo, jHi := max(0, -dj), min(w, w-dj)
				switch {
				case iLo >= iHi || jLo >= jHi:
					// Tap entirely in the padding (kernel wider than the
					// image): the whole row is zeros.
					tensor.Zero(row)
				case jLo == 0 && jHi == w:
					// Horizontally centered tap: one contiguous copy with
					// zeroed vertical borders.
					tensor.Zero(row[:iLo*w])
					copy(row[iLo*w:iHi*w], xin[(iLo+di)*w:(iHi+di)*w])
					tensor.Zero(row[iHi*w:])
				default:
					tensor.Zero(row)
					for i := iLo; i < iHi; i++ {
						copy(row[i*w+jLo:i*w+jHi], xin[(i+di)*w+jLo+dj:(i+di)*w+jHi+dj])
					}
				}
				r++
			}
		}
	}
}

// Forward computes, sample after sample, y = W·im2col(x) + b as one fused
// AXPY sweep per (output channel, kernel tap); a batch shares the weights
// and nothing else. For each output pixel the contributions
// accumulate onto the bias in ascending (ic, ki, kj) order — exactly the
// order of the direct convolution, so results are bit-identical to the
// scalar reference (taps in the padding contribute an exact +0).
//
//fda:noalloc
func (l *Conv2D) Forward(x []float64, _ bool) []float64 {
	plane := l.in.H * l.in.W
	taps := l.in.C * l.k * l.k
	inDim, outDim := l.InDim(), l.OutDim()
	n := len(x) / inDim
	l.y = grow(l.y, n*outDim)
	l.cols = grow(l.cols, n*taps*plane)
	for s := 0; s < n; s++ {
		y := l.y[s*outDim : (s+1)*outDim]
		cols := l.cols[s*taps*plane : (s+1)*taps*plane]
		l.im2col(cols, x[s*inDim:(s+1)*inDim])
		// 2 output channels × 4 taps register blocking: each cols element
		// loaded once serves both channels. Interleaving channels never
		// reorders any single output element's tap accumulation, so
		// results stay bit-identical to the channel-at-a-time scalar
		// reference.
		oc := 0
		for ; oc+2 <= l.outC; oc += 2 {
			outA := y[oc*plane : (oc+1)*plane]
			outB := y[(oc+1)*plane : (oc+2)*plane]
			tensor.Fill(outA, l.b[oc])
			tensor.Fill(outB, l.b[oc+1])
			wa := l.w[oc*taps : (oc+1)*taps]
			wb := l.w[(oc+1)*taps : (oc+2)*taps]
			r := 0
			for ; r+4 <= taps; r += 4 {
				tensor.AXPY4x2(wa[r], wa[r+1], wa[r+2], wa[r+3],
					wb[r], wb[r+1], wb[r+2], wb[r+3],
					cols[r*plane:(r+1)*plane], cols[(r+1)*plane:(r+2)*plane],
					cols[(r+2)*plane:(r+3)*plane], cols[(r+3)*plane:(r+4)*plane],
					outA, outB)
			}
			for ; r < taps; r++ {
				col := cols[r*plane : (r+1)*plane]
				if wv := wa[r]; wv != 0 {
					tensor.AXPY(wv, col, outA)
				}
				if wv := wb[r]; wv != 0 {
					tensor.AXPY(wv, col, outB)
				}
			}
		}
		for ; oc < l.outC; oc++ {
			out := y[oc*plane : (oc+1)*plane]
			tensor.Fill(out, l.b[oc])
			wrow := l.w[oc*taps : (oc+1)*taps]
			r := 0
			for ; r+4 <= taps; r += 4 {
				tensor.AXPY4(wrow[r], wrow[r+1], wrow[r+2], wrow[r+3],
					cols[r*plane:(r+1)*plane], cols[(r+1)*plane:(r+2)*plane],
					cols[(r+2)*plane:(r+3)*plane], cols[(r+3)*plane:(r+4)*plane], out)
			}
			for ; r < taps; r++ {
				if wv := wrow[r]; wv != 0 {
					tensor.AXPY(wv, cols[r*plane:(r+1)*plane], out)
				}
			}
		}
	}
	return l.y
}

// Backward consumes the patch matrices of the last Forward, sample after
// sample so that every gradient element receives its samples in order:
// the bias gradient is a plane sum, the weight gradient one fused dot per
// (output channel, tap), and the input gradient is Wᵀ·gradOut computed
// tap by tap into gcol and scattered back through the im2col geometry.
//
//fda:noalloc
func (l *Conv2D) Backward(gradOut []float64, needInput bool) []float64 {
	plane := l.in.H * l.in.W
	taps := l.in.C * l.k * l.k
	inDim, outDim := l.InDim(), l.OutDim()
	n := len(gradOut) / outDim
	if needInput {
		l.gin = grow(l.gin, n*inDim)
		tensor.Zero(l.gin)
	}
	for s := 0; s < n; s++ {
		g := gradOut[s*outDim : (s+1)*outDim]
		cols := l.cols[s*taps*plane : (s+1)*taps*plane]
		oc := 0
		for ; oc+2 <= l.outC; oc += 2 {
			goutA := g[oc*plane : (oc+1)*plane]
			goutB := g[(oc+1)*plane : (oc+2)*plane]
			l.gb[oc] += tensor.Sum(goutA)
			l.gb[oc+1] += tensor.Sum(goutB)
			gwa := l.gw[oc*taps : (oc+1)*taps]
			gwb := l.gw[(oc+1)*taps : (oc+2)*taps]
			r := 0
			for ; r+4 <= taps; r += 4 {
				s0, s1, s2, s3, t0, t1, t2, t3 := tensor.Dot4x2(goutA, goutB,
					cols[r*plane:(r+1)*plane], cols[(r+1)*plane:(r+2)*plane],
					cols[(r+2)*plane:(r+3)*plane], cols[(r+3)*plane:(r+4)*plane])
				gwa[r] += s0
				gwa[r+1] += s1
				gwa[r+2] += s2
				gwa[r+3] += s3
				gwb[r] += t0
				gwb[r+1] += t1
				gwb[r+2] += t2
				gwb[r+3] += t3
			}
			for ; r < taps; r++ {
				col := cols[r*plane : (r+1)*plane]
				gwa[r] += tensor.Dot(goutA, col)
				gwb[r] += tensor.Dot(goutB, col)
			}
		}
		for ; oc < l.outC; oc++ {
			gout := g[oc*plane : (oc+1)*plane]
			l.gb[oc] += tensor.Sum(gout)
			gwrow := l.gw[oc*taps : (oc+1)*taps]
			r := 0
			for ; r+4 <= taps; r += 4 {
				s0, s1, s2, s3 := tensor.Dot4(gout,
					cols[r*plane:(r+1)*plane], cols[(r+1)*plane:(r+2)*plane],
					cols[(r+2)*plane:(r+3)*plane], cols[(r+3)*plane:(r+4)*plane])
				gwrow[r] += s0
				gwrow[r+1] += s1
				gwrow[r+2] += s2
				gwrow[r+3] += s3
			}
			for ; r < taps; r++ {
				gwrow[r] += tensor.Dot(gout, cols[r*plane:(r+1)*plane])
			}
		}
		if !needInput {
			continue
		}
		gin := l.gin[s*inDim : (s+1)*inDim]
		// Patch gradient Wᵀ·gradOut, two taps at a time (each gradOut
		// element loaded once for both), each accumulated over output
		// channels in ascending order and scattered back through the
		// im2col geometry.
		r := 0
		for ; r+2 <= taps; r += 2 {
			tensor.Zero(l.gcol)
			tensor.Zero(l.gcol2)
			oc := 0
			for ; oc+4 <= l.outC; oc += 4 {
				tensor.AXPY4x2(
					l.w[oc*taps+r], l.w[(oc+1)*taps+r], l.w[(oc+2)*taps+r], l.w[(oc+3)*taps+r],
					l.w[oc*taps+r+1], l.w[(oc+1)*taps+r+1], l.w[(oc+2)*taps+r+1], l.w[(oc+3)*taps+r+1],
					g[oc*plane:(oc+1)*plane], g[(oc+1)*plane:(oc+2)*plane],
					g[(oc+2)*plane:(oc+3)*plane], g[(oc+3)*plane:(oc+4)*plane],
					l.gcol, l.gcol2)
			}
			for ; oc < l.outC; oc++ {
				gout := g[oc*plane : (oc+1)*plane]
				if wv := l.w[oc*taps+r]; wv != 0 {
					tensor.AXPY(wv, gout, l.gcol)
				}
				if wv := l.w[oc*taps+r+1]; wv != 0 {
					tensor.AXPY(wv, gout, l.gcol2)
				}
			}
			l.scatterTap(gin, l.gcol, r)
			l.scatterTap(gin, l.gcol2, r+1)
		}
		for ; r < taps; r++ {
			tensor.Zero(l.gcol)
			oc := 0
			for ; oc+4 <= l.outC; oc += 4 {
				tensor.AXPY4(
					l.w[oc*taps+r], l.w[(oc+1)*taps+r], l.w[(oc+2)*taps+r], l.w[(oc+3)*taps+r],
					g[oc*plane:(oc+1)*plane], g[(oc+1)*plane:(oc+2)*plane],
					g[(oc+2)*plane:(oc+3)*plane], g[(oc+3)*plane:(oc+4)*plane],
					l.gcol)
			}
			for ; oc < l.outC; oc++ {
				if wv := l.w[oc*taps+r]; wv != 0 {
					tensor.AXPY(wv, g[oc*plane:(oc+1)*plane], l.gcol)
				}
			}
			l.scatterTap(gin, l.gcol, r)
		}
	}
	if !needInput {
		return nil
	}
	return l.gin
}

// scatterTap adds the plane-length patch-gradient row of kernel tap r
// into the input gradient at that tap's spatial offset (col2im for one
// row).
func (l *Conv2D) scatterTap(gin, gcol []float64, r int) {
	h, w := l.in.H, l.in.W
	pad := l.k / 2
	plane := h * w
	kk := l.k * l.k
	ic := r / kk
	rem := r % kk
	ki, kj := rem/l.k, rem%l.k
	di, dj := ki-pad, kj-pad
	iLo, iHi := max(0, -di), min(h, h-di)
	jLo, jHi := max(0, -dj), min(w, w-dj)
	if iLo >= iHi || jLo >= jHi {
		return // tap entirely in the padding: nothing to scatter
	}
	gin = gin[ic*plane : (ic+1)*plane]
	if jLo == 0 && jHi == w {
		// Horizontally centered tap: the valid rows are contiguous in
		// both buffers, so the scatter collapses to one unrolled add.
		tensor.Accumulate(gin[(iLo+di)*w:(iHi+di)*w], gcol[iLo*w:iHi*w])
		return
	}
	for i := iLo; i < iHi; i++ {
		src := gcol[i*w+jLo : i*w+jHi]
		dst := gin[(i+di)*w+jLo+dj : (i+di)*w+jHi+dj]
		for j, v := range src {
			dst[j] += v
		}
	}
}

// MaxPool2D is a non-overlapping max pooling layer with a square window.
// Input dimensions must be divisible by the window size. Pooling treats
// every channel plane alone, so a batch of n samples is simply n·C planes
// back to back (likewise AvgPool2D and GlobalAvgPool).
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
		l.forward2(x, planes)
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

// forward2 is the 2×2 window specialization (every pooling layer in the
// model zoo): the four candidates are compared branch-by-branch without
// the generic window loops or per-candidate index multiplication. Tie
// handling matches the generic path — strictly-greater wins, so the
// first candidate in window scan order is kept on ties.
func (l *MaxPool2D) forward2(x []float64, planes int) {
	h, w := l.in.H, l.in.W
	oh, ow := h/2, w/2
	for c := 0; c < planes; c++ {
		xin := x[c*h*w:]
		o := c * oh * ow
		for i := 0; i < oh; i++ {
			top := 2 * i * w
			bot := top + w
			for j := 0; j < ow; j++ {
				i00 := top + 2*j
				bestIdx, best := i00, xin[i00]
				if v := xin[i00+1]; v > best {
					bestIdx, best = i00+1, v
				}
				i10 := bot + 2*j
				if v := xin[i10]; v > best {
					bestIdx, best = i10, v
				}
				if v := xin[i10+1]; v > best {
					bestIdx, best = i10+1, v
				}
				l.y[o] = best
				l.arg[o] = c*h*w + bestIdx
				o++
			}
		}
	}
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
