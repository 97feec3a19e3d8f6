package tensor

// ConvPlan is the geometry of a stride-1, same-padded k×k convolution
// (k odd) from inC planes of h×w pixels to outC, and the three passes
// over it, one sample a call. Volumes are channel-major ([c][h][w]
// flattened), weights [outC][inC][k][k] — tap r = (ic, ki, kj) in that
// order — and the input is kept as padded planes: Pad copies each plane
// into the interior of a (h+k−1)-row plane whose rows are Wp long, and
// nothing ever writes the border, so it stays the +0 it was allocated
// as. Every output pixel then reads each tap at one fixed offset from
// its own, with no bounds to clip.
//
// Each output element keeps the operands, rounding steps and order of
// the direct convolution (DESIGN.md §7): a forward output starts at its
// bias and adds its taps in r order; a weight-gradient element is one
// dot over the pixels, left to right from +0, added to gw once; an
// input-gradient element starts at +0 and adds, tap after tap, that
// tap's sum over the output channels, itself left to right from +0,
// skipping the taps whose output pixel lies outside the image. Weights
// in the last taps mod 4 of the forward and in the last output channels
// mod 4 of the input gradient are skipped where they are zero.
//
// The Go loops below are the specification and serve every shape; on
// amd64 with AVX2 the forward and weight-gradient passes, and the input
// gradient of 3×3 kernels, run the register tiles of kernels_amd64.s,
// which issue the same operations per element.
type ConvPlan struct {
	h, w, k, inC, outC int
	// wp is a padded row: ⌈w/4⌉·4 + k − 1 elements, so that a 4-pixel
	// run starting in the image reads its taps within its own row even
	// where the run spills past the image's last column. plane is a
	// padded plane, (h+k−1)·wp.
	wp, plane int

	// taps[r] is tap r's offset in a sample's padded planes relative to
	// the top-left tap of output pixel (0, 0), zero-padded to a multiple
	// of 8 entries (the weight-gradient tile reads eight at a time).
	taps []int
	// pix[p] is output pixel p's top-left tap in its padded plane,
	// row-major.
	pix []int
	// vecs holds, for each run of up to four pixels of an image row,
	// convVec words: the run's top-left tap in the padded plane, its
	// first pixel's index in an output plane and four lane masks, all
	// ones for the lanes inside the image. The tiles take runs four at a
	// time, so the last one is repeated up to a multiple of four (a
	// repeat stores the same bits twice).
	vecs []int
	// The input-gradient tile's tables (3×3 only, inputGradTables):
	// gvecs are its runs, in vecs' format, an even count; gmask holds,
	// for each run and each of the nine taps of an input channel, four
	// lane masks, all ones where the output pixel the input pixel
	// reaches under the tap lies in the image; goff[t] is how far past
	// an input pixel the gradient of that output pixel lies in gp, whose
	// planes are gplane long.
	gvecs  []int
	gmask  []uint64
	goff   []int
	gplane int

	// Scratch of the assembly tiles, made on first use (a first layer
	// never takes the input gradient): one sample's gradient laid out
	// for the input-gradient tile (gp) and pixel-major with the channels
	// rounded up to four (gt), and the input gradient's running sums of
	// one input channel's runs (gs).
	gp, gt, gs []float64
}

// convVec is the number of words per run in ConvPlan.vecs.
const convVec = 6

// NewConvPlan returns the plan of a k×k convolution (k odd) from inC
// planes of h×w pixels to outC.
func NewConvPlan(h, w, k, inC, outC int) *ConvPlan {
	if h <= 0 || w <= 0 || inC <= 0 || outC <= 0 || k <= 0 || k%2 == 0 {
		panic("tensor: ConvPlan needs positive dimensions and an odd kernel")
	}
	wp := (w+3)&^3 + k - 1
	p := &ConvPlan{h: h, w: w, k: k, inC: inC, outC: outC, wp: wp, plane: (h + k - 1) * wp}
	nt := inC * k * k
	p.taps = make([]int, (nt+7)&^7)
	for r := 0; r < nt; r++ {
		ic, t := r/(k*k), r%(k*k)
		p.taps[r] = ic*p.plane + t/k*wp + t%k
	}
	p.pix = make([]int, 0, h*w)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			p.pix = append(p.pix, i*wp+j)
		}
	}
	for i := 0; i < h; i++ {
		for j0 := 0; j0 < w; j0 += 4 {
			v := []int{i*wp + j0, i*w + j0, 0, 0, 0, 0}
			for l := 0; l < 4 && j0+l < w; l++ {
				v[2+l] = -1
			}
			p.vecs = append(p.vecs, v...)
		}
	}
	for len(p.vecs)%(4*convVec) != 0 {
		p.vecs = append(p.vecs, p.vecs[len(p.vecs)-convVec:]...)
	}
	return p
}

// inputGradTables makes the input-gradient tile's runs, masks, tap
// offsets and scratch (3×3 only). Its runs are four consecutive pixels
// of a plane in row-major order, rows included, so a 6×6 plane is nine
// runs where row by row it would be twelve; gp holds each output
// channel's gradient plane whole, gplane apart, behind one row and one
// element of slack, and a lane whose tap reaches past a row's end reads
// the next row's gradient, which its mask clears.
func (p *ConvPlan) inputGradTables() {
	hw := p.h * p.w
	for q0 := 0; q0 < hw; q0 += 4 {
		v := []int{q0, q0, 0, 0, 0, 0}
		for l := 0; l < 4 && q0+l < hw; l++ {
			v[2+l] = -1
		}
		p.gvecs = append(p.gvecs, v...)
	}
	if len(p.gvecs)%(2*convVec) != 0 {
		p.gvecs = append(p.gvecs, p.gvecs[len(p.gvecs)-convVec:]...)
	}
	runs := len(p.gvecs) / convVec
	for v := 0; v < runs; v++ {
		for t := 0; t < 9; t++ {
			for l := 0; l < 4; l++ {
				q := p.gvecs[v*convVec] + l
				var m uint64
				if oi, oj := q/p.w-t/3+1, q%p.w-t%3+1; q < hw && oi >= 0 && oi < p.h && oj >= 0 && oj < p.w {
					m = ^uint64(0)
				}
				p.gmask = append(p.gmask, m)
			}
		}
	}
	for t := 0; t < 9; t++ {
		p.goff = append(p.goff, (2-t/3)*p.w+2-t%3)
	}
	p.gplane = 4*runs + 2*p.w + 2
	p.gs = make([]float64, 4*runs)
	p.gp = make([]float64, p.outC*p.gplane)
}

// PaddedLen is the length of one sample's padded input planes.
func (p *ConvPlan) PaddedLen() int { return p.inC * p.plane }

// Pad copies one sample's inC planes src into the interiors of the padded
// planes dst (PaddedLen long), leaving the border as it is.
//
//fda:noalloc
func (p *ConvPlan) Pad(dst, src []float64) {
	h, w, pad := p.h, p.w, p.k/2
	if len(dst) != p.PaddedLen() || len(src) != p.inC*h*w {
		lenPanic("ConvPlan.Pad", len(src), p.inC*h*w)
	}
	if useAVX2 {
		convPadAVX2(dst[pad*p.wp+pad:], src, p.inC, h, w, p.wp, p.plane)
		return
	}
	for c := 0; c < p.inC; c++ {
		in := src[c*h*w : (c+1)*h*w]
		out := dst[c*p.plane+pad*p.wp+pad:]
		for i := 0; i < h; i++ {
			copy(out[i*p.wp:i*p.wp+w], in[i*w:(i+1)*w])
		}
	}
}

// Forward stores one sample's output planes into y: for each output
// channel its bias, then every tap r in order, weight times the padded
// input under the tap, the last taps mod 4 skipped where their weight is
// zero.
//
//fda:noalloc
func (p *ConvPlan) Forward(y, xp, w, b []float64) {
	nt := p.inC * p.k * p.k
	hw := p.h * p.w
	if len(y) != p.outC*hw || len(xp) != p.PaddedLen() || len(w) != p.outC*nt || len(b) != p.outC {
		lenPanic("ConvPlan.Forward", len(y), p.outC*hw)
	}
	if useAVX2 {
		convForwardAVX2(y, xp, w, b, p.taps[:nt], p.vecs, hw)
		return
	}
	for oc := 0; oc < p.outC; oc++ {
		out := y[oc*hw : (oc+1)*hw]
		Fill(out, b[oc])
		for r, off := range p.taps[:nt] {
			wv := w[oc*nt+r]
			if r >= nt&^3 && wv == 0 {
				continue
			}
			for i := 0; i < p.h; i++ {
				row := out[i*p.w : (i+1)*p.w]
				src := xp[off+i*p.wp : off+i*p.wp+p.w]
				for j := range row {
					row[j] += wv * src[j]
				}
			}
		}
	}
}

// WeightGrad adds one sample's weight and bias gradients into gw and
// gb: for each output channel oc and tap r the dot of g's plane oc with
// the padded input under tap r, and for each oc the sum of its plane,
// each over the pixels left to right from +0.
//
//fda:noalloc
func (p *ConvPlan) WeightGrad(gw, gb, xp, g []float64) {
	nt := p.inC * p.k * p.k
	hw := p.h * p.w
	if len(gw) != p.outC*nt || len(gb) != p.outC || len(xp) != p.PaddedLen() || len(g) != p.outC*hw {
		lenPanic("ConvPlan.WeightGrad", len(g), p.outC*hw)
	}
	if useAVX2 {
		if p.gt == nil {
			p.gt = make([]float64, hw*((p.outC+3)&^3)) //fda:allow(noalloc, once per layer, on its first backward pass)
		}
		convTransposeAVX2(p.gt, g, p.outC, hw)
		convWeightGradAVX2(gw, gb, xp, p.gt, p.taps, p.pix, nt, p.outC)
		return
	}
	for oc := 0; oc < p.outC; oc++ {
		gout := g[oc*hw : (oc+1)*hw]
		gb[oc] += Sum(gout)
		for r, off := range p.taps[:nt] {
			var s float64
			for q, at := range p.pix {
				s += gout[q] * xp[off+at]
			}
			gw[oc*nt+r] += s
		}
	}
}

// InputGrad stores one sample's input gradient into gin: each input
// pixel starts at +0 and adds, tap after tap, the tap's sum over the
// output channels of weight times gradient, left to right from +0 (the
// last outC mod 4 channels skipped where their weight is zero), unless
// the tap's output pixel lies outside the image.
//
//fda:noalloc
func (p *ConvPlan) InputGrad(gin, g, w []float64) {
	kk := p.k * p.k
	nt, hw := p.inC*kk, p.h*p.w
	if len(gin) != p.inC*hw || len(g) != p.outC*hw || len(w) != p.outC*nt {
		lenPanic("ConvPlan.InputGrad", len(gin), p.inC*hw)
	}
	if useAVX2 && p.k == 3 {
		if p.gp == nil {
			p.inputGradTables()
		}
		convPadAVX2(p.gp[1+p.w:], g, p.outC, 1, hw, 0, p.gplane)
		convInputGradAVX2(gin, p.gp, w, p.gvecs, p.gmask, p.gs, p.goff, p.inC, p.outC, hw, p.gplane)
		return
	}
	pad := p.k / 2
	for ic := 0; ic < p.inC; ic++ {
		for a := 0; a < p.h; a++ {
			for b := 0; b < p.w; b++ {
				var acc float64
				for t := 0; t < kk; t++ {
					i, j := a-t/p.k+pad, b-t%p.k+pad
					if i < 0 || i >= p.h || j < 0 || j >= p.w {
						continue
					}
					var s float64
					for oc := 0; oc < p.outC; oc++ {
						wv := w[oc*nt+ic*kk+t]
						if oc >= p.outC&^3 && wv == 0 {
							continue
						}
						s += wv * g[oc*hw+i*p.w+j]
					}
					acc += s
				}
				gin[ic*hw+a*p.w+b] = acc
			}
		}
	}
}
