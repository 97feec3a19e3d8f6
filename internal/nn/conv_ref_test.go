package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// refConv2D is the pre-im2col direct convolution, kept verbatim as the
// scalar reference the fused kernels are pinned against.
type refConv2D struct {
	in   Shape
	outC int
	k    int
	w, b []float64
}

func (l *refConv2D) widx(oc, ic, ki, kj int) int {
	return ((oc*l.in.C+ic)*l.k+ki)*l.k + kj
}

func (l *refConv2D) forward(y, x []float64) {
	h, w, inC := l.in.H, l.in.W, l.in.C
	pad := l.k / 2
	plane := h * w
	for oc := 0; oc < l.outC; oc++ {
		out := y[oc*plane : (oc+1)*plane]
		tensor.Fill(out, l.b[oc])
		for ic := 0; ic < inC; ic++ {
			xin := x[ic*plane : (ic+1)*plane]
			for ki := 0; ki < l.k; ki++ {
				for kj := 0; kj < l.k; kj++ {
					wv := l.w[l.widx(oc, ic, ki, kj)]
					if wv == 0 {
						continue
					}
					di, dj := ki-pad, kj-pad
					iLo, iHi := max(0, -di), min(h, h-di)
					jLo, jHi := max(0, -dj), min(w, w-dj)
					for i := iLo; i < iHi; i++ {
						srcRow := xin[(i+di)*w:]
						dstRow := out[i*w:]
						for j := jLo; j < jHi; j++ {
							dstRow[j] += wv * srcRow[j+dj]
						}
					}
				}
			}
		}
	}
}

func (l *refConv2D) backward(gw, gb, gin, x, gradOut []float64) {
	h, w, inC := l.in.H, l.in.W, l.in.C
	pad := l.k / 2
	plane := h * w
	tensor.Zero(gin)
	for oc := 0; oc < l.outC; oc++ {
		gout := gradOut[oc*plane : (oc+1)*plane]
		var bsum float64
		for _, g := range gout {
			bsum += g
		}
		gb[oc] += bsum
		for ic := 0; ic < inC; ic++ {
			xin := x[ic*plane : (ic+1)*plane]
			gc := gin[ic*plane : (ic+1)*plane]
			for ki := 0; ki < l.k; ki++ {
				for kj := 0; kj < l.k; kj++ {
					di, dj := ki-pad, kj-pad
					iLo, iHi := max(0, -di), min(h, h-di)
					jLo, jHi := max(0, -dj), min(w, w-dj)
					var wgrad float64
					wv := l.w[l.widx(oc, ic, ki, kj)]
					for i := iLo; i < iHi; i++ {
						srcRow := xin[(i+di)*w:]
						ginRow := gc[(i+di)*w:]
						goutRow := gout[i*w:]
						for j := jLo; j < jHi; j++ {
							g := goutRow[j]
							wgrad += g * srcRow[j+dj]
							ginRow[j+dj] += g * wv
						}
					}
					gw[l.widx(oc, ic, ki, kj)] += wgrad
				}
			}
		}
	}
}

// convShapes covers multi-channel, k=1/3/5, non-square volumes, and
// degenerate geometries where the kernel half-width exceeds an image
// dimension (taps entirely in the padding — regression: the im2col fast
// paths must not slice out of bounds there).
var convShapes = []struct {
	in   Shape
	outC int
	k    int
}{
	{Shape{H: 8, W: 8, C: 1}, 6, 3},
	{Shape{H: 4, W: 4, C: 3}, 4, 3},
	{Shape{H: 5, W: 7, C: 2}, 3, 5},
	{Shape{H: 3, W: 3, C: 2}, 2, 1},
	{Shape{H: 12, W: 12, C: 3}, 8, 3},
	{Shape{H: 1, W: 8, C: 1}, 2, 5}, // pad > H: vertical taps all-padding
	{Shape{H: 8, W: 1, C: 2}, 1, 5}, // pad > W: horizontal taps all-padding
	{Shape{H: 1, W: 1, C: 2}, 2, 3}, // pad > both
}

func buildPair(t *testing.T, in Shape, outC, k int, seed uint64) (*Conv2D, *refConv2D, []float64) {
	t.Helper()
	l := NewConv2D(in, outC, k, GlorotUniformInit)
	params := make([]float64, l.ParamCount())
	grads := make([]float64, l.ParamCount())
	l.Bind(params, grads)
	l.Init(tensor.NewRNG(seed))
	params[3] = 0 // exercise the zero-weight skip on both sides
	nW := outC * in.C * k * k
	ref := &refConv2D{in: in, outC: outC, k: k, w: params[:nW], b: params[nW:]}
	x := make([]float64, in.Size())
	tensor.Normal(tensor.NewRNG(seed^0xc0), x, 0, 1)
	return l, ref, x
}

// TestConvForwardMatchesScalarReferenceExactly: the im2col forward
// accumulates taps in the same (ic, ki, kj) order onto the bias as the
// direct convolution, so outputs must agree bit for bit.
func TestConvForwardMatchesScalarReferenceExactly(t *testing.T) {
	for si, sh := range convShapes {
		l, ref, x := buildPair(t, sh.in, sh.outC, sh.k, uint64(40+si))
		got := l.Forward(x, true)
		want := make([]float64, l.OutDim())
		ref.forward(want, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %v: forward[%d] = %v, reference %v", sh, i, got[i], want[i])
			}
		}
	}
}

// TestConvBackwardMatchesScalarReference: weight and bias gradients are
// reductions in the same pixel order as the reference (exact). The input
// gradient sums over output channels inside a tap where the reference
// sums over taps inside an output channel: with one output channel or
// one tap per input channel the two orders coincide and it is exact too,
// otherwise it is compared at last-ulp tolerance.
func TestConvBackwardMatchesScalarReference(t *testing.T) {
	for si, sh := range convShapes {
		l, ref, x := buildPair(t, sh.in, sh.outC, sh.k, uint64(60+si))
		gout := make([]float64, l.OutDim())
		tensor.Normal(tensor.NewRNG(uint64(90+si)), gout, 0, 1)

		l.Forward(x, true)
		gotGin := tensor.Clone(l.Backward(gout, true))
		nW := sh.outC * sh.in.C * sh.k * sh.k
		gotGw := tensor.Clone(l.gw[:nW])
		gotGb := tensor.Clone(l.gb)

		refGw := make([]float64, nW)
		refGb := make([]float64, sh.outC)
		refGin := make([]float64, sh.in.Size())
		ref.backward(refGw, refGb, refGin, x, gout)

		for i := range refGw {
			if gotGw[i] != refGw[i] {
				t.Fatalf("shape %v: gw[%d] = %v, reference %v", sh, i, gotGw[i], refGw[i])
			}
		}
		for i := range refGb {
			if gotGb[i] != refGb[i] {
				t.Fatalf("shape %v: gb[%d] = %v, reference %v", sh, i, gotGb[i], refGb[i])
			}
		}
		for i := range refGin {
			diff := math.Abs(gotGin[i] - refGin[i])
			tol := 1e-12 * (1 + math.Abs(refGin[i]))
			if sh.outC == 1 || sh.k == 1 {
				tol = 0
			}
			if diff > tol {
				t.Fatalf("shape %v: gin[%d] = %v, reference %v (|Δ|=%g)", sh, i, gotGin[i], refGin[i], diff)
			}
		}
	}
}

// TestConvBackwardAccumulates verifies gradients accumulate across
// samples (the mini-batch contract) rather than being overwritten.
func TestConvBackwardAccumulates(t *testing.T) {
	sh := convShapes[1]
	l, _, x := buildPair(t, sh.in, sh.outC, sh.k, 77)
	gout := make([]float64, l.OutDim())
	tensor.Fill(gout, 0.5)
	l.Forward(x, true)
	l.Backward(gout, true)
	once := tensor.Clone(l.gw)
	l.Forward(x, true)
	l.Backward(gout, true)
	for i := range once {
		if math.Abs(l.gw[i]-2*once[i]) > 1e-12*(1+math.Abs(once[i])) {
			t.Fatalf("gw[%d] after two passes = %v, want %v", i, l.gw[i], 2*once[i])
		}
	}
}
