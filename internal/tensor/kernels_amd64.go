//go:build !purego

package tensor

import "unsafe"

// useAVX2 selects the assembly bodies in kernels_amd64.s. It is decided
// once, from the CPU alone: there is no flag, variable or option that
// turns the assembly off at run time — building with -tags purego (or
// for another GOARCH) removes it instead.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU implements AVX2 and the OS saves
// the YMM state across context switches (CPUID.1:ECX OSXSAVE+AVX, XCR0
// bits 1–2, CPUID.7.0:EBX AVX2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

//go:noescape
//fda:noalloc
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
//fda:noalloc
func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

//go:noescape
//fda:noalloc
func dot4AVX2(a, x0, x1, x2, x3 []float64) (s0, s1, s2, s3 float64)

//go:noescape
//fda:noalloc
func dot4x2AVX2(a, b, x0, x1, x2, x3 []float64) (s0, s1, s2, s3, t0, t1, t2, t3 float64)

//go:noescape
//fda:noalloc
func adamAVX2(params, grads, m, v []float64, b1, b2, lr, eps, b1c, b2c, wd float64, w0, xi []float64) (sq, dot float64)

//go:noescape
//fda:noalloc
func scaleAVX2(v []float64, c float64)

//go:noescape
//fda:noalloc
func scaleAddAVX2(v []float64, c float64, x []float64)

//go:noescape
//fda:noalloc
func reluAVX2(dst, x []float64)

//go:noescape
//fda:noalloc
func reluGradAVX2(dst, g, out []float64)

//go:noescape
//fda:noalloc
func dot4x8AVX2(dst []float64, stride int, w, x []float64, n int)

//go:noescape
//fda:noalloc
func convForwardAVX2(y, xp, w, b []float64, taps, vecs []int, hw int)

//go:noescape
//fda:noalloc
func convWeightGradAVX2(gw, gb, xp, gt []float64, taps, pix []int, nTaps, outC int)

//go:noescape
//fda:noalloc
func convInputGradAVX2(gin, gp, w []float64, vecs []int, masks []uint64, sums []float64, goff []int, inC, outC, hw, plane int)

//go:noescape
//fda:noalloc
func convPadAVX2(dst, src []float64, planes, h, w, wp, plane int)

//go:noescape
//fda:noalloc
func convTransposeAVX2(gt, g []float64, outC, hw int)

//go:noescape
//fda:noalloc
func maxPool2x2AVX2(y []float64, arg []int, x []float64, rows, w int)

//go:noescape
//fda:noalloc
func decodeLEAVX2(dst []float64, b []byte)

//go:noescape
//fda:noalloc
func addScaleLEAVX2(d []float64, b []byte, s float64)

// ViewLE returns v's memory image: 8·len(v) bytes that share v's memory,
// so a write through either shows in the other. On amd64 a float64's
// memory image is its little-endian encoding, so the view holds exactly
// what EncodeLE would write, and the socket fabric sends a vector from
// it without an encode pass. This is the repository's one use of
// unsafe; where memory order is not wire order, or under -tags purego,
// ViewLE returns nil and callers encode.
func ViewLE(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}
