package tensor

import (
	"math"
	"testing"
)

// convGeoms are the geometries the convolution entries of the
// exact-equality matrix cycle through, one per vector length: widths on
// both sides of a 4-pixel run (1…9, 12), kernels wider than the image,
// k = 1, 3, 5, tap counts (3 included, whose only weight-gradient tile
// is a four-tap one) and output channel counts around multiples of four
// and eight, and the zoo's planes (8×8, 4×4, 12×12, 6×6, 3×3).
var convGeoms = []struct{ h, w, k, inC, outC int }{
	{4, 4, 3, 2, 5}, {8, 8, 3, 1, 6}, {3, 3, 3, 3, 7}, {6, 6, 3, 2, 9},
	{5, 7, 3, 1, 4}, {1, 5, 3, 2, 3}, {2, 9, 3, 1, 2}, {7, 2, 3, 3, 1},
	{4, 4, 1, 5, 6}, {5, 6, 5, 1, 3}, {1, 1, 3, 2, 2}, {12, 12, 3, 1, 8},
	{2, 1, 5, 2, 5}, {3, 4, 1, 9, 10}, {4, 8, 3, 4, 13}, {5, 3, 1, 3, 5},
}

// convK3 are the 3×3 geometries, for the routines that only take those.
var convK3 = func() (gs []int) {
	for i, g := range convGeoms {
		if g.k == 3 {
			gs = append(gs, i)
		}
	}
	return gs
}()

// convCase is one draw of a convolution's operands: geometry g (an index
// into convGeoms), input x, weights w, bias b, output gradient g and
// gradient accumulators gw, gb that already hold values, all cycled from
// the matrix's vectors.
type convCase struct {
	h, w, k, inC, outC int
	x, wt, b, gout     []float64
	gw, gb             []float64
}

// convFrom picks the geometry by the vector length and fills every
// operand by cycling through the vectors' values (zeros where a vector
// is empty); operands start one element into their allocation for odd
// lengths, so the assembly meets both alignments of its slices.
func convFrom(v [][]float64, geoms []int) convCase {
	n := len(v[0])
	g := convGeoms[geoms[n%len(geoms)]]
	c := convCase{h: g.h, w: g.w, k: g.k, inC: g.inC, outC: g.outC}
	cyc := func(q, m int) []float64 {
		out := convOut(m, n%2)
		if src := v[q%len(v)]; len(src) > 0 {
			for i := range out {
				out[i] = src[(i*7+q)%len(src)]
			}
		}
		return out
	}
	hw, nt := g.h*g.w, g.inC*g.k*g.k
	c.x, c.wt, c.b = cyc(0, g.inC*hw), cyc(1, g.outC*nt), cyc(2, g.outC)
	c.gout, c.gw, c.gb = cyc(3, g.outC*hw), cyc(4, g.outC*nt), cyc(5, g.outC)
	return c
}

// convGuard fills the elements past the end of every operand and
// result: a routine that writes outside its slices shows there.
const convGuard = 1234.5

// convOut returns m elements starting off into their allocation, with
// four guard elements behind them.
func convOut(m, off int) []float64 {
	buf := make([]float64, off+m+4)
	for i := off + m; i < len(buf); i++ {
		buf[i] = convGuard
	}
	return buf[off : off+m]
}

// guarded is v followed by its four guard elements.
func guarded(v []float64) []float64 { return v[:len(v)+4] }

// xAt is input pixel (i, j) of channel ic, +0 outside the image.
func (c convCase) xAt(ic, i, j int) float64 {
	if i < 0 || i >= c.h || j < 0 || j >= c.w {
		return 0
	}
	return c.x[(ic*c.h+i)*c.w+j]
}

// oracleConvForward is the direct convolution: per output pixel the bias,
// then every tap in (ic, ki, kj) order, padding contributing weight × +0,
// the last taps mod 4 skipped where their weight is zero.
func oracleConvForward(c convCase) []float64 {
	pad, nt := c.k/2, c.inC*c.k*c.k
	y := convOut(c.outC*c.h*c.w, 0)
	for oc := 0; oc < c.outC; oc++ {
		for i := 0; i < c.h; i++ {
			for j := 0; j < c.w; j++ {
				s := c.b[oc]
				for r := 0; r < nt; r++ {
					wv := c.wt[oc*nt+r]
					if r >= nt&^3 && wv == 0 {
						continue
					}
					t := r % (c.k * c.k)
					s += wv * c.xAt(r/(c.k*c.k), i+t/c.k-pad, j+t%c.k-pad)
				}
				y[(oc*c.h+i)*c.w+j] = s
			}
		}
	}
	return guarded(y)
}

// oracleConvWeightGrad returns gw and gb after one sample: each weight
// gradient a dot over the pixels, each bias gradient a plane sum, both
// left to right from +0 and added once.
func oracleConvWeightGrad(c convCase) []float64 {
	pad, nt, hw := c.k/2, c.inC*c.k*c.k, c.h*c.w
	gw, gb := Clone(guarded(c.gw)), Clone(guarded(c.gb))
	for oc := 0; oc < c.outC; oc++ {
		var sb float64
		for p := 0; p < hw; p++ {
			sb += c.gout[oc*hw+p]
		}
		gb[oc] += sb
		for r := 0; r < nt; r++ {
			t := r % (c.k * c.k)
			var s float64
			for i := 0; i < c.h; i++ {
				for j := 0; j < c.w; j++ {
					s += c.gout[(oc*c.h+i)*c.w+j] * c.xAt(r/(c.k*c.k), i+t/c.k-pad, j+t%c.k-pad)
				}
			}
			gw[oc*nt+r] += s
		}
	}
	return append(gw, gb...)
}

// oracleConvInputGrad is the input gradient: per input pixel a sum from
// +0, tap after tap, of the tap's sum over the output channels (from +0,
// the last outC mod 4 skipped where their weight is zero), taps whose
// output pixel lies outside the image left out.
func oracleConvInputGrad(c convCase) []float64 {
	pad, kk, hw := c.k/2, c.k*c.k, c.h*c.w
	nt := c.inC * kk
	gin := convOut(c.inC*hw, 0)
	for ic := 0; ic < c.inC; ic++ {
		for a := 0; a < c.h; a++ {
			for b := 0; b < c.w; b++ {
				var acc float64
				for t := 0; t < kk; t++ {
					i, j := a-t/c.k+pad, b-t%c.k+pad
					if i < 0 || i >= c.h || j < 0 || j >= c.w {
						continue
					}
					var s float64
					for oc := 0; oc < c.outC; oc++ {
						wv := c.wt[oc*nt+ic*kk+t]
						if oc >= c.outC&^3 && wv == 0 {
							continue
						}
						s += wv * c.gout[oc*hw+i*c.w+j]
					}
					acc += s
				}
				gin[ic*hw+a*c.w+b] = acc
			}
		}
	}
	return guarded(gin)
}

// padded returns the planes of src (h×w each) in a plan's padded layout,
// built with the test's own loop.
func padded(p *ConvPlan, src []float64, planes int) []float64 {
	pad := p.k / 2
	dst := make([]float64, planes*p.plane)
	for c := 0; c < planes; c++ {
		for i := 0; i < p.h; i++ {
			for j := 0; j < p.w; j++ {
				dst[c*p.plane+(i+pad)*p.wp+j+pad] = src[(c*p.h+i)*p.w+j]
			}
		}
	}
	return dst
}

// convKernel puts one convolution routine in the matrix: run computes a
// case's results with it, the oracle with the scalar loops above.
// Vectors only supply values, so nothing is compared in place.
func convKernel(name string, geoms []int, run, oracle func(c convCase) []float64) simdKernel {
	return simdKernel{
		name: name, vecs: 6,
		run:    func(v [][]float64, _ []float64) []float64 { return run(convFrom(v, geoms)) },
		oracle: func(v [][]float64, _ []float64) []float64 { return oracle(convFrom(v, geoms)) },
	}
}

func allConvGeoms() []int {
	gs := make([]int, len(convGeoms))
	for i := range gs {
		gs[i] = i
	}
	return gs
}

// convPlanKernels are the exported passes, through Pad as Conv2D calls
// them.
func convPlanKernels() []simdKernel {
	plan := func(c convCase) *ConvPlan { return NewConvPlan(c.h, c.w, c.k, c.inC, c.outC) }
	padX := func(p *ConvPlan, c convCase) []float64 {
		xp := make([]float64, p.PaddedLen())
		p.Pad(xp, c.x)
		return xp
	}
	return []simdKernel{
		convKernel("ConvPlan.Forward", allConvGeoms(), func(c convCase) []float64 {
			p := plan(c)
			y := convOut(c.outC*c.h*c.w, 1)
			p.Forward(y, padX(p, c), c.wt, c.b)
			return guarded(y)
		}, oracleConvForward),
		convKernel("ConvPlan.WeightGrad", allConvGeoms(), func(c convCase) []float64 {
			p := plan(c)
			p.WeightGrad(c.gw, c.gb, padX(p, c), c.gout)
			return append(Clone(guarded(c.gw)), guarded(c.gb)...)
		}, oracleConvWeightGrad),
		convKernel("ConvPlan.InputGrad", allConvGeoms(), func(c convCase) []float64 {
			gin := convOut(c.inC*c.h*c.w, 1)
			plan(c).InputGrad(gin, c.gout, c.wt)
			return guarded(gin)
		}, oracleConvInputGrad),
	}
}

// convAsmKernels are the raw assembly routines, each handed the tables
// of a plan and operands laid out by the test's own loops: padded planes
// and the pixel-major gradient.
func convAsmKernels(
	fwd func(y, xp, w, b []float64, taps, vecs []int, hw int),
	wgrad func(gw, gb, xp, gt []float64, taps, pix []int, nTaps, outC int),
	igrad func(gin, gp, w []float64, vecs []int, masks []uint64, sums []float64, goff []int, inC, outC, hw, plane int),
	padFn func(dst, src []float64, planes, h, w, wp, plane int),
	transpose func(gt, g []float64, outC, hw int),
) []simdKernel {
	plan := func(c convCase) *ConvPlan { return NewConvPlan(c.h, c.w, c.k, c.inC, c.outC) }
	oc4 := func(c convCase) int { return (c.outC + 3) &^ 3 }
	pixelMajor := func(c convCase) []float64 {
		hw := c.h * c.w
		gt := make([]float64, hw*oc4(c))
		for oc := 0; oc < c.outC; oc++ {
			for q := 0; q < hw; q++ {
				gt[q*oc4(c)+oc] = c.gout[oc*hw+q]
			}
		}
		return gt
	}
	return []simdKernel{
		convKernel("convForwardAVX2", allConvGeoms(), func(c convCase) []float64 {
			p := plan(c)
			y := convOut(c.outC*c.h*c.w, 1)
			fwd(y, padded(p, c.x, c.inC), c.wt, c.b, p.taps[:c.inC*c.k*c.k], p.vecs, c.h*c.w)
			return guarded(y)
		}, oracleConvForward),
		convKernel("convWeightGradAVX2", allConvGeoms(), func(c convCase) []float64 {
			p := plan(c)
			wgrad(c.gw, c.gb, padded(p, c.x, c.inC), pixelMajor(c), p.taps, p.pix, c.inC*c.k*c.k, c.outC)
			return append(Clone(guarded(c.gw)), guarded(c.gb)...)
		}, oracleConvWeightGrad),
		convKernel("convInputGradAVX2", convK3, func(c convCase) []float64 {
			p := plan(c)
			p.inputGradTables()
			gin := convOut(c.inC*c.h*c.w, 1)
			hw := c.h * c.w
			gp := make([]float64, c.outC*p.gplane)
			for oc := 0; oc < c.outC; oc++ {
				copy(gp[oc*p.gplane+1+c.w:], c.gout[oc*hw:(oc+1)*hw])
			}
			igrad(gin, gp, c.wt, p.gvecs, p.gmask, p.gs, p.goff, c.inC, c.outC, hw, p.gplane)
			return guarded(gin)
		}, oracleConvInputGrad),
		// The pad and the transpose only move bits: vector 0 supplies the
		// planes, and the results are compared with NaN payloads.
		{
			name: "convPadAVX2", vecs: 6, exact: true,
			run: func(v [][]float64, _ []float64) []float64 {
				c := convFrom(v, allConvGeoms())
				p := plan(c)
				dst := make([]float64, p.PaddedLen())
				pad := c.k / 2
				padFn(dst[pad*p.wp+pad:], c.x, c.inC, c.h, c.w, p.wp, p.plane)
				return dst
			},
			oracle: func(v [][]float64, _ []float64) []float64 {
				c := convFrom(v, allConvGeoms())
				return padded(plan(c), c.x, c.inC)
			},
		},
		{
			name: "convTransposeAVX2", vecs: 6, exact: true,
			run: func(v [][]float64, _ []float64) []float64 {
				c := convFrom(v, allConvGeoms())
				gt := make([]float64, c.h*c.w*oc4(c))
				transpose(gt, c.gout, c.outC, c.h*c.w)
				// The lanes past outC are the routine's own business.
				for q := 0; q < c.h*c.w; q++ {
					for oc := c.outC; oc < oc4(c); oc++ {
						gt[q*oc4(c)+oc] = 0
					}
				}
				return gt
			},
			oracle: func(v [][]float64, _ []float64) []float64 { return pixelMajor(convFrom(v, allConvGeoms())) },
		},
	}
}

// TestConvPlanBorderStaysZero: the passes write only inside the padded
// planes' borders, which every tap past the image reads as +0.
func TestConvPlanBorderStaysZero(t *testing.T) {
	rng := NewRNG(41)
	for _, g := range convGeoms {
		p := NewConvPlan(g.h, g.w, g.k, g.inC, g.outC)
		nt := g.inC * g.k * g.k
		xp := make([]float64, p.PaddedLen())
		for pass := 0; pass < 2; pass++ {
			p.Pad(xp, randVec(rng, g.inC*g.h*g.w))
			p.Forward(make([]float64, g.outC*g.h*g.w), xp, randVec(rng, g.outC*nt), randVec(rng, g.outC))
			gout := randVec(rng, g.outC*g.h*g.w)
			p.WeightGrad(make([]float64, g.outC*nt), make([]float64, g.outC), xp, gout)
			p.InputGrad(make([]float64, g.inC*g.h*g.w), gout, randVec(rng, g.outC*nt))
		}
		pad := g.k / 2
		for i, v := range xp {
			at := i % p.plane
			r, col := at/p.wp, at%p.wp
			inside := r >= pad && r < pad+g.h && col >= pad && col < pad+g.w
			if !inside && math.Float64bits(v) != 0 {
				t.Fatalf("%+v: padded element %d (row %d, column %d) = %v, want +0", g, i, r, col, v)
			}
		}
	}
}
