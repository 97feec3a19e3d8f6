//go:build !purego

package tensor

// The raw assembly routines join the exact-equality matrix and the fuzz
// target of kernels_simd_test.go, so they are also exercised below the
// dispatch threshold (each must finish any tail, including all of a
// short vector, on its own). On a CPU without AVX2 there is nothing to
// run them on and the exported kernels take the Go path.
func init() {
	if !useAVX2 {
		return
	}
	simdKernels = append(simdKernels,
		axpyKernel("axpyAVX2", axpyAVX2),
		axpy4Kernel("axpy4AVX2", axpy4AVX2),
		dot4Kernel("dot4AVX2", dot4AVX2),
		dot4x2Kernel("dot4x2AVX2", dot4x2AVX2),
		scaleKernel("scaleAVX2", scaleAVX2),
		scaleAddKernel("scaleAddAVX2", scaleAddAVX2),
		reluKernel("reluAVX2", reluAVX2),
		reluGradKernel("reluGradAVX2", reluGradAVX2),
		dot4x8Kernel("dot4x8AVX2", dot4x8AVX2),
	)
	simdKernels = append(simdKernels, adamKernels("adamAVX2", adamAVX2)...)
	simdKernels = append(simdKernels, leKernels("AVX2", nil, decodeLEAVX2, addScaleLEAVX2)...)
	simdKernels = append(simdKernels,
		convAsmKernels(convForwardAVX2, convWeightGradAVX2, convInputGradAVX2, convPadAVX2, convTransposeAVX2)...)
}
