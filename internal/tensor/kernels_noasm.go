//go:build !amd64 || purego

package tensor

// This build has no assembly: useAVX2 is constant false, the compiler
// drops every dispatch branch in kernels.go, and the Go loops are the
// only path. The declarations below exist so those branches type-check.
const useAVX2 = false

func axpyAVX2(alpha float64, x, y []float64) { panic("tensor: no assembly in this build") }

func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	panic("tensor: no assembly in this build")
}

func dot4AVX2(a, x0, x1, x2, x3 []float64) (s0, s1, s2, s3 float64) {
	panic("tensor: no assembly in this build")
}

func dot4x2AVX2(a, b, x0, x1, x2, x3 []float64) (s0, s1, s2, s3, t0, t1, t2, t3 float64) {
	panic("tensor: no assembly in this build")
}

func adamAVX2(params, grads, m, v []float64, b1, b2, lr, eps, b1c, b2c, wd float64, w0, xi []float64) (sq, dot float64) {
	panic("tensor: no assembly in this build")
}

func scaleAVX2(v []float64, c float64) { panic("tensor: no assembly in this build") }

func scaleAddAVX2(v []float64, c float64, x []float64) { panic("tensor: no assembly in this build") }

func reluAVX2(dst, x []float64) { panic("tensor: no assembly in this build") }

func reluGradAVX2(dst, g, out []float64) { panic("tensor: no assembly in this build") }

func dot4x8AVX2(dst []float64, stride int, w, x []float64, n int) {
	panic("tensor: no assembly in this build")
}

func convForwardAVX2(y, xp, w, b []float64, taps, vecs []int, hw int) {
	panic("tensor: no assembly in this build")
}

func convWeightGradAVX2(gw, gb, xp, gt []float64, taps, pix []int, nTaps, outC int) {
	panic("tensor: no assembly in this build")
}

func convInputGradAVX2(gin, gp, w []float64, vecs []int, masks []uint64, sums []float64, goff []int, inC, outC, hw, plane int) {
	panic("tensor: no assembly in this build")
}

func convPadAVX2(dst, src []float64, planes, h, w, wp, plane int) {
	panic("tensor: no assembly in this build")
}

func convTransposeAVX2(gt, g []float64, outC, hw int) { panic("tensor: no assembly in this build") }

func maxPool2x2AVX2(y []float64, arg []int, x []float64, rows, w int) {
	panic("tensor: no assembly in this build")
}

func decodeLEAVX2(dst []float64, b []byte) { panic("tensor: no assembly in this build") }

func addScaleLEAVX2(d []float64, b []byte, s float64) { panic("tensor: no assembly in this build") }

// ViewLE has no view in this build: callers encode (EncodeLE).
func ViewLE(v []float64) []byte { return nil }
