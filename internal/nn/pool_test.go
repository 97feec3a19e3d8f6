package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// The 2×2 max pool runs on tensor.MaxPool2x2, whose assembly body picks
// with compare-and-blend instead of branching. These tests pin what it
// must pick to the strict-> window scan written out below: the first
// candidate in window order wins a tie (+0 against −0 included), a NaN
// wins only from the first position, and Backward routes each gradient to
// exactly that candidate. They run in every build, so -tags purego holds
// the Go loop to the same scan.

// scanMaxPool2 is the generic window loop for size 2 over planes h×w
// planes: outputs, argmax indices and, for gout, the input gradient.
func scanMaxPool2(x []float64, h, w int, gout []float64) (y []float64, arg []int, gin []float64) {
	for c := 0; c < len(x)/(h*w); c++ {
		for i := 0; i < h; i += 2 {
			for j := 0; j < w; j += 2 {
				best := c*h*w + i*w + j
				for di := 0; di < 2; di++ {
					for dj := 0; dj < 2; dj++ {
						if idx := c*h*w + (i+di)*w + j + dj; x[idx] > x[best] {
							best = idx
						}
					}
				}
				y, arg = append(y, x[best]), append(arg, best)
			}
		}
	}
	gin = make([]float64, len(x))
	for o, src := range arg {
		gin[src] += gout[o]
	}
	return y, arg, gin
}

// checkMaxPool runs one Forward and Backward of a 2×2 pool over x (planes
// of in's H×W) and compares y and gin bit for bit, and arg, with the scan.
func checkMaxPool(t testing.TB, in Shape, x, gout []float64, label string) {
	t.Helper()
	l := NewMaxPool2D(in, 2)
	y := l.Forward(x, true)
	wantY, wantArg, wantGin := scanMaxPool2(x, in.H, in.W, gout)
	for o := range wantY {
		if l.arg[o] != wantArg[o] || math.Float64bits(y[o]) != math.Float64bits(wantY[o]) {
			t.Fatalf("%s: window %d picked x[%d] = %v (%#x), scan x[%d] = %v (%#x)", label, o,
				l.arg[o], y[o], math.Float64bits(y[o]), wantArg[o], wantY[o], math.Float64bits(wantY[o]))
		}
	}
	gin := l.Backward(gout, true)
	for i := range wantGin {
		if math.Float64bits(gin[i]) != math.Float64bits(wantGin[i]) {
			t.Fatalf("%s: gin[%d] = %v, scan %v", label, i, gin[i], wantGin[i])
		}
	}
}

// TestMaxPoolPicksLikeTheScan places each special window at every
// window position of two 4×14 planes — the lanes of a four-window group,
// the pair and the single that finish a row of seven, both window rows —
// among ordinary windows.
func TestMaxPoolPicksLikeTheScan(t *testing.T) {
	nan, inf, neg0 := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := [][4]float64{
		{nan, 1, 2, 3}, {1, nan, 2, 3}, {3, 2, nan, 1}, {1, 2, 3, nan}, {nan, nan, nan, nan},
		{0, neg0, -1, -2}, {neg0, 0, -1, -2}, {-1, 0, neg0, -2}, {-1, -2, neg0, 0}, {neg0, neg0, neg0, neg0},
		{5, 5, 5, 5}, {-1, 7, 7, 7}, {-1, -2, 3, 3},
		{-inf, -inf, -inf, -inf}, {1, inf, inf, 2}, {-inf, nan, -inf, -2}, {inf, nan, 1, 2},
		{5e-324, 1e-320, -5e-324, 0}, {-5e-324, neg0, 0, -1e-310}, {2.2250738585072014e-308, 5e-324, 5e-324, 1e-310},
	}
	in := Shape{H: 4, W: 14, C: 2}
	windows := in.Size() / 4
	rng := tensor.NewRNG(71)
	for ci, c := range cases {
		for q := 0; q < windows; q++ {
			x := make([]float64, in.Size())
			tensor.Normal(rng, x, 0, 1)
			plane, r, j := q/(windows/2), q%(windows/2)/7, q%7
			at := plane*in.H*in.W + 2*r*in.W + 2*j
			x[at], x[at+1], x[at+in.W], x[at+in.W+1] = c[0], c[1], c[2], c[3]
			gout := make([]float64, windows)
			tensor.Normal(rng, gout, 0, 1)
			checkMaxPool(t, in, x, gout, fmt.Sprintf("case %d %v at window %d", ci, c, q))
		}
	}
}

// FuzzMaxPoolMatchesScalar lets the fuzzer pick the geometry (even H and
// W up to 16), the plane count (up to 9) and the raw bits of the leading
// inputs; the rest are small integers and specials, so ties are common.
func FuzzMaxPoolMatchesScalar(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(0), uint64(1), []byte{})
	f.Add(uint8(7), uint8(7), uint8(8), uint64(2), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(1), uint8(0), uint8(2), uint64(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), uint8(6), uint8(4), uint64(4), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324}
	f.Fuzz(func(t *testing.T, h, w, planes uint8, seed uint64, raw []byte) {
		in := Shape{H: 2 * (1 + int(h)%8), W: 2 * (1 + int(w)%8), C: 1 + int(planes)%9}
		rng := tensor.NewRNG(seed)
		x := make([]float64, in.Size())
		for i := range x {
			switch {
			case 8*i+8 <= len(raw):
				x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			case rng.Intn(4) == 0:
				x[i] = specials[rng.Intn(len(specials))]
			default:
				x[i] = float64(rng.Intn(5) - 2)
			}
		}
		gout := make([]float64, in.Size()/4)
		tensor.Normal(rng, gout, 0, 1)
		checkMaxPool(t, in, x, gout, fmt.Sprintf("%+v", in))
	})
}
