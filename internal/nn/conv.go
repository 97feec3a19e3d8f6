package nn

import (
	"sync"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major volumes (layout
// [c][h][w] flattened), stride 1, with "same" zero padding for odd kernel
// sizes. Weights are stored flat as [outC][inC][kh][kw] followed by one
// bias per output channel.
//
// A pass lowers each sample to its patch matrix and works on whole
// matrices from there (DESIGN.md §7): Forward is one grouped AXPY sweep
// per pair of output channels, the weight gradient one tensor.MatVec per
// sample, the input gradient one grouped sweep per pair of taps, and
// im2col / col2im move one contiguous span per tap.
type Conv2D struct {
	in     Shape
	outC   int
	k      int // square kernel size, odd
	scheme InitScheme

	w, gw []float64 // outC*inC*k*k weight / gradient views
	b, gb []float64 // outC bias / gradient views

	y   []float64 // output buffer
	gin []float64 // input-gradient buffer

	// taps is the geometry of the k·k kernel taps, shared by every input
	// channel and by every layer on the same image geometry.
	taps []convTap

	// Scratch owned by the layer and reused across micro-batches so the
	// steady-state step allocates nothing. cols holds one (inC·k·k)×(H·W)
	// patch matrix per sample of the last Forward — row r holds, for
	// every output pixel, the input value under kernel tap r (zero where
	// the tap falls outside the image); Backward consumes it in place of
	// a cached input, one sample at a time through the view patch. gws
	// receives one sample's weight gradient in gw's own layout. gcol and
	// gcol2 are plane-length rows of the patch gradient for a pair of
	// taps, scattered back into gin tap by tap.
	cols  []float64
	patch tensor.Mat
	gws   []float64
	gcol  []float64
	gcol2 []float64
}

// convTap is where one kernel tap (di, dj) meets the image. Row-major,
// the output pixels whose input pixel under the tap exists run from lo
// to hi, and that input pixel sits off = di·W + dj further on — so the
// whole tap is one shifted span, except that for dj ≠ 0 the shift drags
// |dj| pixels across each image-row boundary inside the span, which
// belong to the padding. mask has one element per span entry: all ones,
// and zero at those wrapped entries. A tap entirely in the padding has
// lo = hi = 0.
type convTap struct {
	lo, hi, off int
	mask        []uint64
}

// tapCache holds every image geometry's taps: they depend on (H, W, k)
// alone, so each geometry's are built once per process and shared,
// read-only, by every layer and replica that has it.
var tapCache = struct {
	sync.Mutex
	m map[[3]int][]convTap
}{m: map[[3]int][]convTap{}}

// convTaps returns the k·k taps of a k×k kernel on an h×w image in
// weight order.
func convTaps(h, w, k int) []convTap {
	tapCache.Lock()
	defer tapCache.Unlock()
	key := [3]int{h, w, k}
	if taps, ok := tapCache.m[key]; ok {
		return taps
	}
	pad := k / 2
	// One plane-length mask per column shift: entry p is all ones where
	// column p mod w still has an input pixel under the shift.
	masks := make([][]uint64, k)
	for kj := range masks {
		masks[kj] = make([]uint64, h*w)
		for p := range masks[kj] {
			if j := p%w + kj - pad; j >= 0 && j < w {
				masks[kj][p] = ^uint64(0)
			}
		}
	}
	taps := make([]convTap, 0, k*k)
	for ki := 0; ki < k; ki++ {
		for kj := 0; kj < k; kj++ {
			di, dj := ki-pad, kj-pad
			iLo, iHi := max(0, -di), min(h, h-di)
			jLo, jHi := max(0, -dj), min(w, w-dj)
			var t convTap
			if iLo < iHi && jLo < jHi {
				lo, hi := iLo*w+jLo, (iHi-1)*w+jHi
				t = convTap{lo: lo, hi: hi, off: di*w + dj, mask: masks[kj][lo:hi]}
			}
			taps = append(taps, t)
		}
	}
	tapCache.m[key] = taps
	return taps
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
	plane := in.H * in.W
	return &Conv2D{in: in, outC: outC, k: k, scheme: scheme,
		taps:  convTaps(in.H, in.W, k),
		patch: tensor.Mat{Rows: in.C * k * k, Cols: plane},
		gws:   make([]float64, outC*in.C*k*k),
		gcol:  make([]float64, plane),
		gcol2: make([]float64, plane),
	}
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
// tap touches, with zeros where the tap falls into the padding — per tap
// zeros either side of the span and one masked copy of the shifted
// channel plane, which stores +0 over the entries that wrapped.
//
//fda:noalloc
func (l *Conv2D) im2col(cols, x []float64) {
	plane := l.in.H * l.in.W
	r := 0
	for ic := 0; ic < l.in.C; ic++ {
		xin := x[ic*plane : (ic+1)*plane]
		for _, t := range l.taps {
			row := cols[r*plane : (r+1)*plane]
			tensor.Zero(row[:t.lo])
			tensor.MaskedCopy(row[t.lo:t.hi], xin[t.lo+t.off:t.hi+t.off], t.mask)
			tensor.Zero(row[t.hi:])
			r++
		}
	}
}

// Forward computes, sample after sample, y = W·im2col(x) + b: each pair
// of output channels is one grouped AXPY sweep over the patch matrix,
// four taps to a group; a batch shares the weights and nothing else. For
// each output pixel the contributions accumulate onto the bias in
// ascending (ic, ki, kj) order — exactly the order of the direct
// convolution, so results are bit-identical to the scalar reference
// (taps in the padding contribute an exact +0). Interleaving two
// channels never reorders any single output element's accumulation.
//
//fda:noalloc
func (l *Conv2D) Forward(x []float64, _ bool) []float64 {
	plane := l.in.H * l.in.W
	taps := l.in.C * l.k * l.k
	quads := taps / 4
	inDim, outDim := l.InDim(), l.OutDim()
	n := len(x) / inDim
	l.y = grow(l.y, n*outDim)
	l.cols = grow(l.cols, n*taps*plane)
	for s := 0; s < n; s++ {
		y := l.y[s*outDim : (s+1)*outDim]
		cols := l.cols[s*taps*plane : (s+1)*taps*plane]
		l.im2col(cols, x[s*inDim:(s+1)*inDim])
		oc := 0
		for ; oc+2 <= l.outC; oc += 2 {
			outA := y[oc*plane : (oc+1)*plane]
			outB := y[(oc+1)*plane : (oc+2)*plane]
			tensor.Fill(outA, l.b[oc])
			tensor.Fill(outB, l.b[oc+1])
			wa := l.w[oc*taps : (oc+1)*taps]
			wb := l.w[(oc+1)*taps : (oc+2)*taps]
			tensor.AXPY4x2(outA, outB, cols, wa, wb, 1, quads)
			for r := 4 * quads; r < taps; r++ {
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
// sample so that every gradient element receives its samples in order.
// The bias gradient is a plane sum. The weight gradient
// gw[oc][r] += Σ_p gradOut[oc][p]·cols[r][p] is the patch matrix times
// the outC planes of gradOut — tensor.MatVec, whose register tile runs
// eight output channels' dot products side by side, each left to right
// from +0 — written in gw's layout and added once. The input gradient is
// Wᵀ·gradOut, two taps at a time (each gradOut element loaded once for
// both) as one grouped sweep down two weight columns, four output
// channels to a group in ascending order, scattered back through the
// im2col geometry.
//
//fda:noalloc
func (l *Conv2D) Backward(gradOut []float64, needInput bool) []float64 {
	plane := l.in.H * l.in.W
	taps := l.in.C * l.k * l.k
	quads := l.outC / 4
	inDim, outDim := l.InDim(), l.OutDim()
	n := len(gradOut) / outDim
	if needInput {
		l.gin = grow(l.gin, n*inDim)
		tensor.Zero(l.gin)
	}
	for s := 0; s < n; s++ {
		g := gradOut[s*outDim : (s+1)*outDim]
		for oc := range l.gb {
			l.gb[oc] += tensor.Sum(g[oc*plane : (oc+1)*plane])
		}
		l.patch.Data = l.cols[s*taps*plane : (s+1)*taps*plane]
		tensor.MatVec(l.gws, &l.patch, g)
		tensor.Accumulate(l.gw, l.gws)
		if !needInput {
			continue
		}
		gin := l.gin[s*inDim : (s+1)*inDim]
		for r := 0; r < taps; r += 2 {
			// A lone last tap rides as both halves of a pair; its second
			// copy is dropped.
			r2 := min(r+1, taps-1)
			tensor.Zero(l.gcol)
			tensor.Zero(l.gcol2)
			tensor.AXPY4x2(l.gcol, l.gcol2, g, l.w[r:], l.w[r2:], taps, quads)
			for oc := 4 * quads; oc < l.outC; oc++ {
				gout := g[oc*plane : (oc+1)*plane]
				if wv := l.w[oc*taps+r]; wv != 0 {
					tensor.AXPY(wv, gout, l.gcol)
				}
				if wv := l.w[oc*taps+r2]; wv != 0 {
					tensor.AXPY(wv, gout, l.gcol2)
				}
			}
			l.scatterTap(gin, l.gcol, r)
			if r2 > r {
				l.scatterTap(gin, l.gcol2, r2)
			}
		}
	}
	if !needInput {
		return nil
	}
	return l.gin
}

// scatterTap adds the plane-length patch-gradient row of kernel tap r
// into the input gradient at that tap's spatial offset (col2im for one
// row): im2col's shifted span run backwards as one masked add. The
// wrapped entries of gcol, whatever they hold, are masked to +0 — and
// gin, summed up from +0, is never −0, the one value +0 would change.
//
//fda:noalloc
func (l *Conv2D) scatterTap(gin, gcol []float64, r int) {
	kk := l.k * l.k
	t := &l.taps[r%kk]
	at := r/kk*l.in.H*l.in.W + t.off
	tensor.MaskedAdd(gin[at+t.lo:at+t.hi], gcol[t.lo:t.hi], t.mask)
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
