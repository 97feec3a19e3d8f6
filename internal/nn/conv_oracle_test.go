package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// This file keeps the convolution layer's passes as they stood before
// they moved to GEMM granularity — per-image-row im2col, the Dot4x2
// weight gradient nest with its remainder loops, one AXPY4x2 call per
// quad, the per-image-row scatterTap — verbatim, as the oracle the layer
// must reproduce bit for bit: outputs, weight, bias and input gradients.
// Only the 2×4 AXPY call, whose kernel now takes whole groups, is
// spelled out here as the scalar loop it always was.

// oracleAXPY4x2 is the pre-grouping AXPY4x2 as a plain loop.
func oracleAXPY4x2(a0, a1, a2, a3, b0, b1, b2, b3 float64, x0, x1, x2, x3, ya, yb []float64) {
	for i := range ya {
		v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
		s := ya[i] + a0*v0
		s += a1 * v1
		s += a2 * v2
		s += a3 * v3
		ya[i] = s
		t := yb[i] + b0*v0
		t += b1 * v1
		t += b2 * v2
		t += b3 * v3
		yb[i] = t
	}
}

// oracleConv2D is a 2-D convolution over channel-major volumes (layout
// [c][h][w] flattened), stride 1, with "same" zero padding for odd kernel
// sizes. Weights are stored flat as [outC][inC][kh][kw] followed by one
// bias per output channel.
type oracleConv2D struct {
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

// newOracleConv2D returns a same-padded stride-1 convolution with a square odd
// kernel of size k, mapping in (H×W×C) to H×W×outC.
func newOracleConv2D(in Shape, outC, k int, scheme InitScheme) *oracleConv2D {
	if in.H <= 0 || in.W <= 0 || in.C <= 0 || outC <= 0 {
		panic("nn: oracleConv2D with non-positive dimension")
	}
	if k <= 0 || k%2 == 0 {
		panic("nn: oracleConv2D kernel must be positive and odd")
	}
	l := &oracleConv2D{in: in, outC: outC, k: k, scheme: scheme}
	l.gcol = make([]float64, in.H*in.W)
	l.gcol2 = make([]float64, in.H*in.W)
	return l
}

// OutShape returns the output volume (same H, W; outC channels).
func (l *oracleConv2D) OutShape() Shape { return Shape{H: l.in.H, W: l.in.W, C: l.outC} }

func (l *oracleConv2D) InDim() int  { return l.in.Size() }
func (l *oracleConv2D) OutDim() int { return l.OutShape().Size() }

func (l *oracleConv2D) Bind(params, grads []float64) {
	nW := l.outC * l.in.C * l.k * l.k
	l.w, l.b = params[:nW], params[nW:]
	l.gw, l.gb = grads[:nW], grads[nW:]
}

// im2col lowers one sample x into its patch matrix: row r = (ic, ki, kj)
// (the weight layout) holds, pixel by pixel, the input value that kernel
// tap touches, with zeros where the tap falls into the padding. Boundary
// clipping is computed once per tap here instead of once per (tap, output
// channel) as in a direct convolution.
func (l *oracleConv2D) im2col(cols, x []float64) {
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
func (l *oracleConv2D) Forward(x []float64, _ bool) []float64 {
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
				oracleAXPY4x2(wa[r], wa[r+1], wa[r+2], wa[r+3],
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
func (l *oracleConv2D) Backward(gradOut []float64, needInput bool) []float64 {
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
				oracleAXPY4x2(
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
func (l *oracleConv2D) scatterTap(gin, gcol []float64, r int) {
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

// sameBits compares IEEE bit patterns, any NaN matching any NaN (which
// payload survives an operation on two NaNs is the compiler's choice of
// operand order, never part of the contract — DESIGN.md §7).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// zooConvs are the convolutions of the model zoo (internal/models): out
// channels 6 to 28, planes of 144, 64, 36, 16 and 9 pixels.
var zooConvs = []struct {
	in   Shape
	outC int
}{
	{Shape{H: 8, W: 8, C: 1}, 6}, {Shape{H: 4, W: 4, C: 6}, 12}, // lenet5s
	{Shape{H: 8, W: 8, C: 1}, 8}, {Shape{H: 8, W: 8, C: 8}, 8}, {Shape{H: 4, W: 4, C: 8}, 16}, // vgg16s
	{Shape{H: 12, W: 12, C: 3}, 8}, {Shape{H: 6, W: 6, C: 8}, 14}, {Shape{H: 3, W: 3, C: 14}, 20}, // densenet121s
	{Shape{H: 12, W: 12, C: 3}, 12}, {Shape{H: 6, W: 6, C: 12}, 20}, {Shape{H: 3, W: 3, C: 20}, 28}, // densenet201s
}

// newConvPair builds the layer and its oracle on equal parameters (a few
// weights exactly zero, for the skip in the remainder loops) and separate
// gradient vectors.
func newConvPair(in Shape, outC, k int, seed uint64) (*Conv2D, *oracleConv2D) {
	l, o := NewConv2D(in, outC, k, HeNormalInit), newOracleConv2D(in, outC, k, HeNormalInit)
	params := make([]float64, l.ParamCount())
	l.Bind(params, make([]float64, len(params)))
	o.Bind(params, make([]float64, len(params)))
	l.Init(tensor.NewRNG(seed))
	rng := tensor.NewRNG(seed ^ 0x5a)
	tensor.Normal(rng, l.b, 0, 1)
	for i := 0; i < len(l.w); i += 1 + rng.Intn(7) {
		l.w[i] = 0
	}
	return l, o
}

// reluLike draws standard normals with a third of them exactly zero, as
// activations and their gradients are downstream of a ReLU.
func reluLike(rng *tensor.RNG, n int) []float64 {
	v := make([]float64, n)
	tensor.Normal(rng, v, 0, 1)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = 0
		}
	}
	return v
}

// checkConvAgainstOracle runs one Forward and two accumulating Backwards
// through both layers and compares every output, gw, gb and gin bit.
func checkConvAgainstOracle(t testing.TB, l *Conv2D, o *oracleConv2D, x, gout []float64, needInput bool, label string) {
	t.Helper()
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d elements, oracle %d", label, what, len(got), len(want))
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: %s[%d] = %v (%#x), pre-change layer %v (%#x)", label, what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	same("y", l.Forward(x, true), o.Forward(x, true))
	for pass := 0; pass < 2; pass++ {
		same("gin", l.Backward(gout, needInput), o.Backward(gout, needInput))
		same("gw", l.gw, o.gw)
		same("gb", l.gb, o.gb)
	}
}

// TestConvMatchesPreChangeLayerBitForBit: the GEMM-granular passes are
// a restructuring of memory access and call granularity only. Over the
// degenerate geometries of convShapes and every zoo convolution at
// k = 1, 3, 5, for batches on both sides of the MatVec tile, with and
// without the input gradient, nothing the layer produces moves by a bit.
func TestConvMatchesPreChangeLayerBitForBit(t *testing.T) {
	type geom struct {
		in      Shape
		outC, k int
	}
	var geoms []geom
	for _, sh := range convShapes {
		geoms = append(geoms, geom{sh.in, sh.outC, sh.k})
	}
	for _, z := range zooConvs {
		for _, k := range []int{1, 3, 5} {
			geoms = append(geoms, geom{z.in, z.outC, k})
		}
	}
	for gi, g := range geoms {
		for _, n := range []int{1, 2, 7, 8} {
			for _, needInput := range []bool{true, false} {
				l, o := newConvPair(g.in, g.outC, g.k, uint64(300+gi))
				rng := tensor.NewRNG(uint64(1000*gi + n))
				x, gout := reluLike(rng, n*l.InDim()), reluLike(rng, n*l.OutDim())
				checkConvAgainstOracle(t, l, o, x, gout, needInput,
					fmt.Sprintf("%+v batch %d needInput=%v", g, n, needInput))
			}
		}
	}
}

// FuzzConvMatchesDirectReference fuzzes the layer, not just its kernels:
// the fuzzer picks the geometry (H, W ≤ 12, up to 20 input and 28
// output channels: every zoo plane, channel tile and remainder channel
// count), the sample count and the raw bits of the leading values. gradOut takes the bits as they come — NaN, Inf and
// −0 included; inputs and parameters are made finite (and no bias −0),
// the domain on which the direct convolution's zero-weight skip is exact.
// Forward must equal refConv2D bit for bit, Backward the pre-change layer.
func FuzzConvMatchesDirectReference(f *testing.F) {
	f.Add(uint8(7), uint8(7), uint8(0), uint8(5), uint8(1), uint8(0), uint64(1), []byte{})
	f.Add(uint8(3), uint8(3), uint8(3), uint8(7), uint8(1), uint8(2), uint64(2), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(4), uint8(6), uint8(1), uint8(2), uint8(2), uint8(1), uint64(3), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add(uint8(0), uint8(7), uint8(0), uint8(1), uint8(2), uint8(0), uint64(4), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), uint8(2), uint8(2), uint8(8), uint8(0), uint8(1), uint64(5), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	// One seed per zoo convolution at its own k = 3, leading gradient
	// entries NaN, +Inf and −0 where the seed has raw bytes.
	for i, z := range zooConvs {
		var raw []byte
		if i%2 == 0 {
			raw = []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}
		}
		f.Add(uint8(z.in.H-1), uint8(z.in.W-1), uint8(z.in.C-1), uint8(z.outC-1), uint8(1), uint8(i%3), uint64(10+i), raw)
	}
	f.Fuzz(func(t *testing.T, h, w, inC, outC, k, n uint8, seed uint64, raw []byte) {
		in := Shape{H: 1 + int(h)%12, W: 1 + int(w)%12, C: 1 + int(inC)%20}
		l, o := newConvPair(in, 1+int(outC)%28, 1+2*(int(k)%3), seed)
		samples := 1 + int(n)%3
		rng := tensor.NewRNG(seed)
		j := 0
		next := func() float64 {
			j++
			if 8*j <= len(raw) {
				return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j-8:]))
			}
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7))-3)
		}
		finite := func(v []float64) {
			for i := range v {
				b := math.Float64bits(next())
				if b>>52&0x7ff == 0x7ff {
					b &^= 1 << 62
				}
				v[i] = math.Float64frombits(b)
			}
		}
		gout := make([]float64, samples*l.OutDim())
		for i := range gout {
			gout[i] = next()
		}
		x := make([]float64, samples*l.InDim())
		finite(x)
		finite(l.w)
		finite(l.b)
		for i, b := range l.b {
			if b == 0 {
				l.b[i] = 0
			}
		}
		label := fmt.Sprintf("%+v outC=%d k=%d samples=%d", in, l.outC, l.k, samples)
		checkConvAgainstOracle(t, l, o, x, gout, true, label)
		ref := &refConv2D{in: in, outC: l.outC, k: l.k, w: l.w, b: l.b}
		want := make([]float64, l.OutDim())
		for s := 0; s < samples; s++ {
			ref.forward(want, x[s*l.InDim():(s+1)*l.InDim()])
			for i, v := range l.y[s*l.OutDim() : (s+1)*l.OutDim()] {
				if !sameBits(v, want[i]) {
					t.Fatalf("%s: sample %d y[%d] = %v, direct convolution %v", label, s, i, v, want[i])
				}
			}
		}
	})
}
