//go:build !purego

// AVX2 bodies of the hot kernels in kernels.go (DESIGN.md §7, "SIMD
// kernels"). Every routine here is bit-identical to the Go loop it
// stands in for, by construction:
//
//   - a vector lane holds a *different output element* (AXPY family,
//     the Scale/ScaleAdd/ReLU sweeps, Adam, the conv forward and input
//     gradient) or a *different accumulator* (Dot4 family and the
//     MatVec tile, after a 4×4 lane transpose of four rows; the conv
//     weight gradient, one output channel a lane) — never a share of one
//     accumulator, so every sum still runs strictly left to right;
//   - only VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD and their scalar forms,
//     which round each lane exactly as MULSD/ADDSD/… round a scalar, and
//     the compare, select, mask and move forms of the ReLU pair, the max
//     pool and the conv tiles (VPCMPGTQ/VPCMPEQQ/VPANDN, VANDPD,
//     VCMPPD/VBLENDVPD, VMASKMOVPD), which move bits and round nothing. No FMA,
//     anywhere: a fused multiply-add rounds once where
//     the Go code rounds twice (kernels_simd_test.go fails on the
//     mnemonic);
//   - operations are issued per element in the order the Go source
//     evaluates them.
//
// Each routine finishes its own tail (n mod 4, or all of a short n) with
// the scalar forms of the same instructions — the conv tiles instead
// store their edge lanes under masks — and executes VZEROUPPER
// before every RET so the SSE code the Go compiler emits pays no
// transition penalty. Inside a routine that touches a Y register every
// instruction naming an X register is VEX-encoded (VMOVQ, never MOVQ):
// one legacy SSE instruction between 256-bit ones pays that penalty on
// every pass of the loop. Slices may be 8-byte aligned only: all vector
// memory accesses are unaligned forms. Callers guarantee every input is
// at least as long as the slice whose length the routine reads.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
// Low half of XCR0; only valid when CPUID reports OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func axpyAVX2(alpha float64, x, y []float64)
// y[i] += alpha*x[i], i < len(y). Lanes are elements.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JL   axpy_tail4

axpy_loop8:
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VMULPD  (SI)(AX*8), Y0, Y3
	VMULPD  32(SI)(AX*8), Y0, Y4
	VADDPD  Y3, Y1, Y1
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLE     axpy_loop8

axpy_tail4:
	ADDQ $4, CX
	CMPQ AX, CX
	JG   axpy_tail1
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  (SI)(AX*8), Y0, Y3
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

axpy_tail1:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  axpy_done

axpy_loop1:
	VMOVSD (DI)(AX*8), X1
	VMULSD (SI)(AX*8), X0, X3
	VADDSD X3, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JL     axpy_loop1

axpy_done:
	VZEROUPPER
	RET

// func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
// y[i] = (((y[i] + a0*x0[i]) + a1*x1[i]) + a2*x2[i]) + a3*x3[i], i < len(y).
// Lanes are elements; each element's partial sums chain in tap order.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	VBROADCASTSD a0+0(FP), Y8
	VBROADCASTSD a1+8(FP), Y9
	VBROADCASTSD a2+16(FP), Y10
	VBROADCASTSD a3+24(FP), Y11
	MOVQ x0_base+32(FP), R8
	MOVQ x1_base+56(FP), R9
	MOVQ x2_base+80(FP), R10
	MOVQ x3_base+104(FP), R11
	MOVQ y_base+128(FP), DI
	MOVQ y_len+136(FP), CX
	XORQ AX, AX
	SUBQ $4, CX
	JL   axpy4_tail

axpy4_loop4:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y8, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(AX*8), Y9, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(AX*8), Y10, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R11)(AX*8), Y11, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     axpy4_loop4

axpy4_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  axpy4_done

axpy4_loop1:
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X8, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(AX*8), X9, X6
	VADDSD X6, X4, X4
	VMULSD (R10)(AX*8), X10, X6
	VADDSD X6, X4, X4
	VMULSD (R11)(AX*8), X11, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JL     axpy4_loop1

axpy4_done:
	VZEROUPPER
	RET

// The Dot4 family keeps accumulator q in lane q. TRANSPOSE4 turns four
// consecutive elements of the four rows x0..x3 (bases R8..R11, index AX)
// into four column vectors Y4..Y7, column j = (x0[i+j], x1[i+j],
// x2[i+j], x3[i+j]), so that acc += broadcast(a[i+j]) * column j, issued
// for j = 0, 1, 2, 3, adds to every lane exactly the term, in exactly the
// order, of that accumulator's scalar loop. COLUMN1 builds the one column
// of a tail element. Both clobber Y2, Y3.
#define TRANSPOSE4 \
	VMOVUPD     (R8)(AX*8), X2; \
	VMOVUPD     (R9)(AX*8), X3; \
	VINSERTF128 $1, (R10)(AX*8), Y2, Y2; \
	VINSERTF128 $1, (R11)(AX*8), Y3, Y3; \
	VUNPCKLPD   Y3, Y2, Y4; \
	VUNPCKHPD   Y3, Y2, Y5; \
	VMOVUPD     16(R8)(AX*8), X2; \
	VMOVUPD     16(R9)(AX*8), X3; \
	VINSERTF128 $1, 16(R10)(AX*8), Y2, Y2; \
	VINSERTF128 $1, 16(R11)(AX*8), Y3, Y3; \
	VUNPCKLPD   Y3, Y2, Y6; \
	VUNPCKHPD   Y3, Y2, Y7

#define COLUMN1 \
	VMOVSD      (R8)(AX*8), X2; \
	VMOVHPD     (R9)(AX*8), X2, X2; \
	VMOVSD      (R10)(AX*8), X3; \
	VMOVHPD     (R11)(AX*8), X3, X3; \
	VINSERTF128 $1, X3, Y2, Y4

// ACCUM adds broadcast(off(ptr)(AX*8)) * col to acc, clobbering tmp.
#define ACCUM(off, ptr, col, acc, tmp) \
	VBROADCASTSD off(ptr)(AX*8), tmp; \
	VMULPD       col, tmp, tmp; \
	VADDPD       tmp, acc, acc

// func dot4AVX2(a, x0, x1, x2, x3 []float64) (s0, s1, s2, s3 float64)
// s_q = Σ a[i]*x_q[i] over i < len(a), each left to right from +0.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-152
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ x0_base+24(FP), R8
	MOVQ x1_base+48(FP), R9
	MOVQ x2_base+72(FP), R10
	MOVQ x3_base+96(FP), R11
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	SUBQ $4, CX
	JL   dot4_tail

dot4_loop4:
	TRANSPOSE4
	ACCUM(0, SI, Y4, Y0, Y8)
	ACCUM(8, SI, Y5, Y0, Y8)
	ACCUM(16, SI, Y6, Y0, Y8)
	ACCUM(24, SI, Y7, Y0, Y8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLE  dot4_loop4

dot4_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  dot4_done

dot4_loop1:
	COLUMN1
	ACCUM(0, SI, Y4, Y0, Y8)
	INCQ AX
	CMPQ AX, CX
	JL   dot4_loop1

dot4_done:
	VMOVUPD Y0, s0+120(FP)
	VZEROUPPER
	RET

// func dot4x2AVX2(a, b, x0, x1, x2, x3 []float64) (s0, s1, s2, s3, t0, t1, t2, t3 float64)
// s_q = Σ a[i]*x_q[i], t_q = Σ b[i]*x_q[i] over i < len(a): two
// accumulator vectors over one transpose of the shared x rows.
TEXT ·dot4x2AVX2(SB), NOSPLIT, $0-208
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	MOVQ x0_base+48(FP), R8
	MOVQ x1_base+72(FP), R9
	MOVQ x2_base+96(FP), R10
	MOVQ x3_base+120(FP), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	SUBQ $4, CX
	JL   dot4x2_tail

dot4x2_loop4:
	TRANSPOSE4
	ACCUM(0, SI, Y4, Y0, Y8)
	ACCUM(0, DX, Y4, Y1, Y9)
	ACCUM(8, SI, Y5, Y0, Y8)
	ACCUM(8, DX, Y5, Y1, Y9)
	ACCUM(16, SI, Y6, Y0, Y8)
	ACCUM(16, DX, Y6, Y1, Y9)
	ACCUM(24, SI, Y7, Y0, Y8)
	ACCUM(24, DX, Y7, Y1, Y9)
	ADDQ $4, AX
	CMPQ AX, CX
	JLE  dot4x2_loop4

dot4x2_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  dot4x2_done

dot4x2_loop1:
	COLUMN1
	ACCUM(0, SI, Y4, Y0, Y8)
	ACCUM(0, DX, Y4, Y1, Y9)
	INCQ AX
	CMPQ AX, CX
	JL   dot4x2_loop1

dot4x2_done:
	VMOVUPD Y0, s0+144(FP)
	VMOVUPD Y1, t0+176(FP)
	VZEROUPPER
	RET

// func adamAVX2(params, grads, m, v []float64, b1, b2, lr, eps, b1c, b2c, wd float64, w0, xi []float64) (sq, dot float64)
// One Adam update per element, i < len(params), in the evaluation order of
// AdamStep's Go loop: m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
// p -= (lr*(m/b1c)) / (sqrt(v/b2c) + eps), the division by b1c skipped
// when b1c is exactly 1; p -= (lr*wd)*p (only if wd != 0). Lanes are
// elements. R13 is non-zero iff wd != 0 in Go's sense (a shift drops the
// sign bit, so ±0 is zero and NaN is not); R14 is zero iff b1c's bits
// are 1.0's.
//
// With w0 non-nil (R10) each updated p also feeds the watch: u = p - w0,
// sq += u*u and dot += xi*u, element by element. X5 holds the pair
// [sq, dot]: one 128-bit add of [u*u, xi*u] advances both sums by one
// element, so each lane is its own left-to-right sum from +0.
TEXT ·adamAVX2(SB), NOSPLIT, $0-216
	MOVQ params_base+0(FP), DI
	MOVQ params_len+8(FP), CX
	MOVQ grads_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ w0_base+152(FP), R10
	MOVQ xi_base+176(FP), R11
	MOVQ $0x3FF0000000000000, AX
	MOVQ b1c+128(FP), R14
	SUBQ AX, R14
	VMOVQ AX, X5
	VMOVSD b1+96(FP), X8
	VSUBSD X8, X5, X9
	VMOVSD b2+104(FP), X10
	VSUBSD X10, X5, X11
	VMOVSD lr+112(FP), X12
	VMULSD wd+144(FP), X12, X7
	VBROADCASTSD X8, Y8
	VBROADCASTSD X9, Y9
	VBROADCASTSD X10, Y10
	VBROADCASTSD X11, Y11
	VBROADCASTSD X12, Y12
	VBROADCASTSD X7, Y7
	VBROADCASTSD eps+120(FP), Y13
	VBROADCASTSD b1c+128(FP), Y14
	VBROADCASTSD b2c+136(FP), Y15
	VXORPD Y5, Y5, Y5
	MOVQ wd+144(FP), R13
	SHLQ $1, R13
	XORQ AX, AX
	SUBQ $4, CX
	JL   adam_tail

adam_loop4:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  (R8)(AX*8), Y8, Y2
	VMULPD  Y0, Y9, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y10, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)(AX*8)
	TESTQ   R14, R14
	JZ      adam_step4
	VDIVPD  Y14, Y2, Y2

adam_step4:
	VMULPD  Y2, Y12, Y2
	VDIVPD  Y15, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y13, Y3, Y3
	VDIVPD  Y3, Y2, Y2
	VSUBPD  Y2, Y1, Y1
	TESTQ   R13, R13
	JZ      adam_store4
	VMULPD  Y1, Y7, Y4
	VSUBPD  Y4, Y1, Y1

adam_store4:
	VMOVUPD Y1, (DI)(AX*8)
	TESTQ   R10, R10
	JZ      adam_next4
	VSUBPD  (R10)(AX*8), Y1, Y0
	VMULPD  Y0, Y0, Y2
	VMULPD  (R11)(AX*8), Y0, Y3
	VUNPCKLPD Y3, Y2, Y4
	VUNPCKHPD Y3, Y2, Y0
	VADDPD  X4, X5, X5
	VADDPD  X0, X5, X5
	VEXTRACTF128 $1, Y4, X4
	VADDPD  X4, X5, X5
	VEXTRACTF128 $1, Y0, X0
	VADDPD  X0, X5, X5

adam_next4:
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     adam_loop4

adam_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  adam_done

adam_loop1:
	VMOVSD (SI)(AX*8), X0
	VMOVSD (DI)(AX*8), X1
	VMULSD  (R8)(AX*8), X8, X2
	VMULSD  X0, X9, X4
	VADDSD  X4, X2, X2
	VMOVSD  X2, (R8)(AX*8)
	VMULSD  (R9)(AX*8), X10, X3
	VMULSD  X0, X11, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (R9)(AX*8)
	TESTQ   R14, R14
	JZ      adam_step1
	VDIVSD  X14, X2, X2

adam_step1:
	VMULSD  X2, X12, X2
	VDIVSD  X15, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X13, X3, X3
	VDIVSD  X3, X2, X2
	VSUBSD  X2, X1, X1
	TESTQ   R13, R13
	JZ      adam_store1
	VMULSD  X1, X7, X4
	VSUBSD  X4, X1, X1

adam_store1:
	VMOVSD X1, (DI)(AX*8)
	TESTQ  R10, R10
	JZ     adam_next1
	VSUBSD (R10)(AX*8), X1, X0
	VMULSD X0, X0, X2
	VMULSD (R11)(AX*8), X0, X3
	VUNPCKLPD X3, X2, X4
	VADDPD X4, X5, X5

adam_next1:
	INCQ   AX
	CMPQ   AX, CX
	JL     adam_loop1

adam_done:
	VMOVUPD X5, sq+200(FP)
	VZEROUPPER
	RET

// The reduction-free sweeps: lanes are elements, one multiply and at most
// one add per element in the order of the Go expression, so vector width
// cannot change a bit.

// func scaleAVX2(v []float64, c float64)
// v[i] = v[i]*c, i < len(v).
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	VBROADCASTSD c+24(FP), Y0
	XORQ AX, AX
	SUBQ $4, CX
	JL   scale_tail

scale_loop4:
	VMULPD  (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     scale_loop4

scale_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  scale_done

scale_loop1:
	VMULSD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JL     scale_loop1

scale_done:
	VZEROUPPER
	RET

// func scaleAddAVX2(v []float64, c float64, x []float64)
// v[i] = c*v[i] + x[i], i < len(v).
TEXT ·scaleAddAVX2(SB), NOSPLIT, $0-56
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	VBROADCASTSD c+24(FP), Y0
	MOVQ x_base+32(FP), SI
	XORQ AX, AX
	SUBQ $4, CX
	JL   scaleadd_tail

scaleadd_loop4:
	VMULPD  (DI)(AX*8), Y0, Y1
	VADDPD  (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     scaleadd_loop4

scaleadd_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  scaleadd_done

scaleadd_loop1:
	VMULSD (DI)(AX*8), X0, X1
	VADDSD (SI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JL     scaleadd_loop1

scaleadd_done:
	VZEROUPPER
	RET

// func reluAVX2(dst, x []float64)
// dst[i] = x[i] with every bit cleared when the sign bit is set,
// i < len(dst): 0 > x as signed integers is exactly "sign bit set".
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VPXOR Y0, Y0, Y0
	XORQ AX, AX
	SUBQ $4, CX
	JL   relu_tail

relu_loop4:
	VMOVDQU   (SI)(AX*8), Y1
	VPCMPGTQ  Y1, Y0, Y2
	VPANDN    Y1, Y2, Y1
	VMOVDQU   Y1, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLE       relu_loop4

relu_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  relu_done

relu_loop1:
	MOVQ (SI)(AX*8), DX
	MOVQ DX, BX
	SARQ $63, BX
	NOTQ BX
	ANDQ BX, DX
	MOVQ DX, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   relu_loop1

relu_done:
	VZEROUPPER
	RET

// func reluGradAVX2(dst, g, out []float64)
// dst[i] = g[i] where out[i] has any bit set, else +0, i < len(dst).
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ out_base+48(FP), DX
	VPXOR Y0, Y0, Y0
	XORQ R8, R8
	XORQ AX, AX
	SUBQ $4, CX
	JL   relugrad_tail

relugrad_loop4:
	VPCMPEQQ  (DX)(AX*8), Y0, Y1
	VPANDN    (SI)(AX*8), Y1, Y1
	VMOVDQU   Y1, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLE       relugrad_loop4

relugrad_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  relugrad_done

relugrad_loop1:
	MOVQ    (SI)(AX*8), BX
	CMPQ    (DX)(AX*8), $0
	CMOVQEQ R8, BX
	MOVQ    BX, (DI)(AX*8)
	INCQ    AX
	CMPQ    AX, CX
	JL      relugrad_loop1

relugrad_done:
	VZEROUPPER
	RET

// MatVec's register tile keeps accumulator (row q, sample s) in lane q of
// Y_s, s = 0..7: eight independent add chains where dot4 has one, so the
// sweep runs at the multiplier's throughput instead of the adder's
// latency. The four rows start at R8 + {0, 1, 2}·R10 and R9 = R8 + 3·R10;
// the eight samples at R11 + {0, 1, 2, 4}·R10, R12 = R11 + 3·R10 (+2·R10
// for sample 5) and R13 = R11 + 6·R10 (+R10 for sample 7), R10 being the
// common stride in bytes. All five pointers advance with the sweep.
// TILE_TRANSPOSE4 is TRANSPOSE4 on those rows, columns in Y8..Y11;
// TILE_COLUMN1 the single tail column in Y8. TILE_STEP adds to every
// accumulator its sample's element at byte offset off times column col —
// for every lane the term, and the order, of that output's scalar dot.
// All three clobber Y12..Y15.
#define TILE_TRANSPOSE4 \
	VMOVUPD     (R8), X12; \
	VMOVUPD     (R8)(R10*1), X13; \
	VINSERTF128 $1, (R8)(R10*2), Y12, Y12; \
	VINSERTF128 $1, (R9), Y13, Y13; \
	VUNPCKLPD   Y13, Y12, Y8; \
	VUNPCKHPD   Y13, Y12, Y9; \
	VMOVUPD     16(R8), X14; \
	VMOVUPD     16(R8)(R10*1), X15; \
	VINSERTF128 $1, 16(R8)(R10*2), Y14, Y14; \
	VINSERTF128 $1, 16(R9), Y15, Y15; \
	VUNPCKLPD   Y15, Y14, Y10; \
	VUNPCKHPD   Y15, Y14, Y11

#define TILE_COLUMN1 \
	VMOVSD      (R8), X12; \
	VMOVHPD     (R8)(R10*1), X12, X12; \
	VMOVSD      (R8)(R10*2), X13; \
	VMOVHPD     (R9), X13, X13; \
	VINSERTF128 $1, X13, Y12, Y8

#define TILE_MAC(addr, col, acc, tmp) \
	VBROADCASTSD addr, tmp; \
	VMULPD       col, tmp, tmp; \
	VADDPD       tmp, acc, acc

#define TILE_STEP(off, col) \
	TILE_MAC(off(R11), col, Y0, Y12); \
	TILE_MAC(off(R11)(R10*1), col, Y1, Y13); \
	TILE_MAC(off(R11)(R10*2), col, Y2, Y14); \
	TILE_MAC(off(R12), col, Y3, Y15); \
	TILE_MAC(off(R11)(R10*4), col, Y4, Y12); \
	TILE_MAC(off(R12)(R10*2), col, Y5, Y13); \
	TILE_MAC(off(R13), col, Y6, Y14); \
	TILE_MAC(off(R13)(R10*1), col, Y7, Y15)

// func dot4x8AVX2(dst []float64, stride int, w, x []float64, n int)
// dst[s*stride+q] = Σ x[s*n+i]*w[q*n+i] over i < n, each left to right
// from +0, for the four rows q of w and the eight samples s of x.
TEXT ·dot4x8AVX2(SB), NOSPLIT, $0-88
	MOVQ w_base+32(FP), R8
	MOVQ x_base+56(FP), R11
	MOVQ n+80(FP), CX
	MOVQ CX, R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), AX
	LEAQ (R8)(AX*1), R9
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	SUBQ $4, CX
	JL   dot4x8_tail

dot4x8_loop4:
	TILE_TRANSPOSE4
	TILE_STEP(0, Y8)
	TILE_STEP(8, Y9)
	TILE_STEP(16, Y10)
	TILE_STEP(24, Y11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	SUBQ $4, CX
	JGE  dot4x8_loop4

dot4x8_tail:
	ADDQ $4, CX
	JLE  dot4x8_done

dot4x8_loop1:
	TILE_COLUMN1
	TILE_STEP(0, Y8)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  dot4x8_loop1

dot4x8_done:
	MOVQ dst_base+0(FP), DI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	VMOVUPD Y0, (DI)
	ADDQ    DX, DI
	VMOVUPD Y1, (DI)
	ADDQ    DX, DI
	VMOVUPD Y2, (DI)
	ADDQ    DX, DI
	VMOVUPD Y3, (DI)
	ADDQ    DX, DI
	VMOVUPD Y4, (DI)
	ADDQ    DX, DI
	VMOVUPD Y5, (DI)
	ADDQ    DX, DI
	VMOVUPD Y6, (DI)
	ADDQ    DX, DI
	VMOVUPD Y7, (DI)
	VZEROUPPER
	RET

// The max pool keeps window q of a group in lane q. POOL_PICK runs the
// scan of MaxPool2x2's Go loop on every lane at once: candidates a, b, c,
// d in window order, each replacing the best so far (in a) only where it
// is greater — VCMPPD's GT_OQ is false when either side is a NaN, as Go's
// > is — and the same mask picks the winner's offset among oa..od into i.
#define POOL_PICK(a, b, c, d, m, i, oa, ob, oc, od) \
	VCMPPD    $0x1e, a, b, m; \
	VBLENDVPD m, b, a, a; \
	VBLENDVPD m, ob, oa, i; \
	VCMPPD    $0x1e, a, c, m; \
	VBLENDVPD m, c, a, a; \
	VBLENDVPD m, oc, i, i; \
	VCMPPD    $0x1e, a, d, m; \
	VBLENDVPD m, d, a, a; \
	VBLENDVPD m, od, i, i

// Window q of a group starts 2q elements on.
DATA pool2Lanes<>+0(SB)/8, $0
DATA pool2Lanes<>+8(SB)/8, $2
DATA pool2Lanes<>+16(SB)/8, $4
DATA pool2Lanes<>+24(SB)/8, $6
GLOBL pool2Lanes<>(SB), RODATA|NOPTR, $32

// func maxPool2x2AVX2(y []float64, arg []int, x []float64, rows, w int)
// For each of rows output rows R and each j < w/2: y[o] and arg[o],
// o = R·w/2 + j, as MaxPool2x2's scan of the window at 2R·w + 2j. Four
// windows to a group, then a pair, then one: any even w, one body.
// Y12..Y15 hold the candidates' offsets 2q + {0, 1, w, w+1} from the
// group's first element, whose index AX is added to the winner's.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-88
	MOVQ y_base+0(FP), DI
	MOVQ arg_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ rows+72(FP), R9
	MOVQ w+80(FP), DX
	MOVQ DX, R10
	SHRQ $1, R10
	VMOVDQU      pool2Lanes<>(SB), Y12
	MOVQ         $1, BX
	VMOVQ        BX, X11
	VPBROADCASTQ X11, Y11
	VPADDQ       Y11, Y12, Y13
	VMOVQ        DX, X10
	VPBROADCASTQ X10, Y10
	VPADDQ       Y10, Y12, Y14
	VPADDQ       Y11, Y14, Y15
	SHLQ $3, DX
	XORQ AX, AX
	TESTQ R9, R9
	JLE  pool_done

pool_row:
	MOVQ R10, CX
	SUBQ $4, CX
	JL   pool_pair

pool_loop4:
	VMOVUPD     (SI), X0
	VINSERTF128 $1, 32(SI), Y0, Y0
	VMOVUPD     16(SI), X1
	VINSERTF128 $1, 48(SI), Y1, Y1
	VMOVUPD     (SI)(DX*1), X2
	VINSERTF128 $1, 32(SI)(DX*1), Y2, Y2
	VMOVUPD     16(SI)(DX*1), X3
	VINSERTF128 $1, 48(SI)(DX*1), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	POOL_PICK(Y4, Y5, Y6, Y7, Y8, Y9, Y12, Y13, Y14, Y15)
	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10
	VPADDQ       Y10, Y9, Y9
	VMOVUPD      Y4, (DI)
	VMOVDQU      Y9, (R8)
	ADDQ $64, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $8, AX
	SUBQ $4, CX
	JGE  pool_loop4

pool_pair:
	ADDQ $4, CX
	CMPQ CX, $2
	JL   pool_single
	VMOVUPD   (SI), X0
	VMOVUPD   16(SI), X1
	VMOVUPD   (SI)(DX*1), X2
	VMOVUPD   16(SI)(DX*1), X3
	VUNPCKLPD X1, X0, X4
	VUNPCKHPD X1, X0, X5
	VUNPCKLPD X3, X2, X6
	VUNPCKHPD X3, X2, X7
	POOL_PICK(X4, X5, X6, X7, X8, X9, X12, X13, X14, X15)
	VMOVQ        AX, X10
	VPBROADCASTQ X10, X10
	VPADDQ       X10, X9, X9
	VMOVUPD      X4, (DI)
	VMOVDQU      X9, (R8)
	ADDQ $32, SI
	ADDQ $16, DI
	ADDQ $16, R8
	ADDQ $4, AX
	SUBQ $2, CX

pool_single:
	TESTQ CX, CX
	JZ    pool_next
	VMOVSD (SI), X4
	VMOVSD 8(SI), X5
	VMOVSD (SI)(DX*1), X6
	VMOVSD 8(SI)(DX*1), X7
	POOL_PICK(X4, X5, X6, X7, X8, X9, X12, X13, X14, X15)
	VMOVQ  AX, X10
	VPADDQ X10, X9, X9
	VMOVSD X4, (DI)
	VMOVQ  X9, (R8)
	ADDQ $16, SI
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $2, AX

pool_next:
	// SI and AX stand at the start of the bottom row: skip it.
	ADDQ DX, SI
	ADDQ w+80(FP), AX
	DECQ R9
	JNZ  pool_row

pool_done:
	VZEROUPPER
	RET

// The little-endian byte kernels. On amd64 a float64's memory image is
// its little-endian encoding, so DecodeLE is one move of 8n bytes and
// AddScaleLE reads its second operand straight from the bytes: lanes
// are elements, element i lives at byte 8i on both sides, and an
// operand may start at any byte offset (unaligned forms only). Nothing
// encodes here: the socket fabric sends a vector's memory image itself
// (ViewLE).

// func decodeLEAVX2(dst []float64, b []byte)
// dst[i] = the bits of b[8i:8i+8], i < len(dst); 16 elements at a time,
// then 4, then 1.
TEXT ·decodeLEAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	XORQ AX, AX
	SUBQ $16, CX
	JL   movele_tail4

movele_loop16:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLE     movele_loop16

movele_tail4:
	ADDQ $12, CX
	CMPQ AX, CX
	JG   movele_tail1

movele_loop4:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     movele_loop4

movele_tail1:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  movele_done

movele_loop1:
	MOVQ (SI)(AX*8), BX
	MOVQ BX, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   movele_loop1

movele_done:
	VZEROUPPER
	RET

// func addScaleLEAVX2(d []float64, b []byte, s float64)
// d[i] = (d[i] + the float64 at b[8i:8i+8])·s, i < len(d): VADDPD, then
// VMULPD, as the Go expression evaluates.
TEXT ·addScaleLEAVX2(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	XORQ AX, AX
	SUBQ $8, CX
	JL   addscalele_tail4

addscalele_loop8:
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VADDPD  (SI)(AX*8), Y1, Y1
	VADDPD  32(SI)(AX*8), Y2, Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLE     addscalele_loop8

addscalele_tail4:
	ADDQ $4, CX
	CMPQ AX, CX
	JG   addscalele_tail1
	VMOVUPD (DI)(AX*8), Y1
	VADDPD  (SI)(AX*8), Y1, Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

addscalele_tail1:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  addscalele_done

addscalele_loop1:
	VMOVSD (DI)(AX*8), X1
	VADDSD (SI)(AX*8), X1, X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JL     addscalele_loop1

addscalele_done:
	VZEROUPPER
	RET

// The convolution tiles (ConvPlan). A run is up to four pixels of one
// image row, one lane each; its ConvPlan.vecs entry is six words: the
// run's top-left tap in the padded plane, its first pixel's index in an
// output plane and four lane masks, all ones for the pixels inside the
// image. Lanes past the image compute on the plane's border and are
// never stored: results leave through VMASKMOVPD under those masks.

// convLanes<>+32n is the mask of the first n lanes, n = 0..4.
DATA convLanes<>+0(SB)/8, $0
DATA convLanes<>+8(SB)/8, $0
DATA convLanes<>+16(SB)/8, $0
DATA convLanes<>+24(SB)/8, $0
DATA convLanes<>+32(SB)/8, $-1
DATA convLanes<>+40(SB)/8, $0
DATA convLanes<>+48(SB)/8, $0
DATA convLanes<>+56(SB)/8, $0
DATA convLanes<>+64(SB)/8, $-1
DATA convLanes<>+72(SB)/8, $-1
DATA convLanes<>+80(SB)/8, $0
DATA convLanes<>+88(SB)/8, $0
DATA convLanes<>+96(SB)/8, $-1
DATA convLanes<>+104(SB)/8, $-1
DATA convLanes<>+112(SB)/8, $-1
DATA convLanes<>+120(SB)/8, $0
DATA convLanes<>+128(SB)/8, $-1
DATA convLanes<>+136(SB)/8, $-1
DATA convLanes<>+144(SB)/8, $-1
DATA convLanes<>+152(SB)/8, $-1
GLOBL convLanes<>(SB), RODATA|NOPTR, $160

// FWD_MAC adds w·x into acc, tmp clobbered.
#define FWD_MAC(x, w, acc, tmp) \
	VMULPD x, w, tmp; \
	VADDPD tmp, acc, acc

// FWD_SEL adds w·x into acc only where the lane of m is set (the weight
// is non-zero): the sum is formed, then selected, so a skipped tap leaves
// acc's bits as they were. tmp clobbered.
#define FWD_SEL(x, w, m, acc, tmp) \
	VMULPD    x, w, tmp; \
	VADDPD    tmp, acc, tmp; \
	VBLENDVPD m, tmp, acc, acc

// FWD_STORE stores the pair of accumulators of run k of the quad at R13
// into the output planes at AX and BX.
#define FWD_STORE(k, a, b) \
	MOVQ       (48*k+8)(R13), DX; \
	VMOVDQU    (48*k+16)(R13), Y8; \
	VMASKMOVPD a, Y8, (AX)(DX*8); \
	VMASKMOVPD b, Y8, (BX)(DX*8)

// func convForwardAVX2(y, xp, w, b []float64, taps, vecs []int, hw int)
// One sample's forward pass: for each pair of output channels (the last
// of an odd count paired with itself) and each quad of runs, eight
// accumulators — channel × run — start at the bias and add every tap r
// in order, weight broadcast times the padded input at the run's offset
// plus taps[r]; the taps from len(taps) &^ 3 on add only where their
// weight is non-zero (VCMPPD NEQ_UQ: NaN counts as non-zero, ±0 as zero,
// like Go's !=). Output planes are hw long.
// Locals: 0 oc, 8 wa, 16 wb, 24 ya, 32 yb, 40 ba, 48 bb.
TEXT ·convForwardAVX2(SB), NOSPLIT, $56-152
	MOVQ taps_base+96(FP), SI
	MOVQ taps_len+104(FP), CX
	MOVQ $0, 0(SP)

fwd_oc:
	// DI = oc, R12 = min(oc+1, outC-1)
	MOVQ  0(SP), DI
	LEAQ  1(DI), R12
	MOVQ  b_len+80(FP), AX
	DECQ  AX
	CMPQ  R12, AX
	CMOVQGT AX, R12
	MOVQ  b_base+72(FP), AX
	LEAQ  (AX)(DI*8), BX
	MOVQ  BX, 40(SP)
	LEAQ  (AX)(R12*8), BX
	MOVQ  BX, 48(SP)
	MOVQ  hw+144(FP), AX
	MOVQ  DI, BX
	IMULQ AX, BX
	SHLQ  $3, BX
	ADDQ  y_base+0(FP), BX
	MOVQ  BX, 24(SP)
	MOVQ  R12, BX
	IMULQ AX, BX
	SHLQ  $3, BX
	ADDQ  y_base+0(FP), BX
	MOVQ  BX, 32(SP)
	MOVQ  DI, BX
	IMULQ CX, BX
	SHLQ  $3, BX
	ADDQ  w_base+48(FP), BX
	MOVQ  BX, 8(SP)
	MOVQ  R12, BX
	IMULQ CX, BX
	SHLQ  $3, BX
	ADDQ  w_base+48(FP), BX
	MOVQ  BX, 16(SP)
	MOVQ  vecs_base+120(FP), R13
	MOVQ  vecs_len+128(FP), R14
	SHLQ  $3, R14
	ADDQ  R13, R14

fwd_quad:
	MOVQ xp_base+24(FP), AX
	MOVQ 0(R13), R8
	LEAQ (AX)(R8*8), R8
	MOVQ 48(R13), R9
	LEAQ (AX)(R9*8), R9
	MOVQ 96(R13), R10
	LEAQ (AX)(R10*8), R10
	MOVQ 144(R13), R11
	LEAQ (AX)(R11*8), R11
	MOVQ 8(SP), DI
	MOVQ 16(SP), R12
	MOVQ 40(SP), AX
	VBROADCASTSD (AX), Y0
	VMOVAPD      Y0, Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y0, Y3
	MOVQ         48(SP), AX
	VBROADCASTSD (AX), Y4
	VMOVAPD      Y4, Y5
	VMOVAPD      Y4, Y6
	VMOVAPD      Y4, Y7
	XORQ         DX, DX
	MOVQ         CX, AX
	ANDQ         $-4, AX
	JZ           fwd_rem

fwd_tap:
	MOVQ         (SI)(DX*8), BX
	VBROADCASTSD (DI)(DX*8), Y8
	VBROADCASTSD (R12)(DX*8), Y9
	VMOVUPD      (R8)(BX*8), Y10
	VMOVUPD      (R9)(BX*8), Y11
	VMOVUPD      (R10)(BX*8), Y12
	VMOVUPD      (R11)(BX*8), Y13
	FWD_MAC(Y10, Y8, Y0, Y14)
	FWD_MAC(Y11, Y8, Y1, Y15)
	FWD_MAC(Y12, Y8, Y2, Y14)
	FWD_MAC(Y13, Y8, Y3, Y15)
	FWD_MAC(Y10, Y9, Y4, Y14)
	FWD_MAC(Y11, Y9, Y5, Y15)
	FWD_MAC(Y12, Y9, Y6, Y14)
	FWD_MAC(Y13, Y9, Y7, Y15)
	INCQ         DX
	CMPQ         DX, AX
	JL           fwd_tap

fwd_rem:
	CMPQ   DX, CX
	JGE    fwd_store
	VXORPD Y15, Y15, Y15

fwd_remtap:
	MOVQ         (SI)(DX*8), BX
	VBROADCASTSD (DI)(DX*8), Y8
	VBROADCASTSD (R12)(DX*8), Y9
	VCMPPD       $4, Y15, Y8, Y13
	VCMPPD       $4, Y15, Y9, Y14
	// Both weights non-zero, the usual case: the plain tap.
	VANDPD       Y13, Y14, Y10
	VMOVMSKPD    Y10, AX
	CMPQ         AX, $15
	JNE          fwd_seltap
	FWD_MAC((R8)(BX*8), Y8, Y0, Y10)
	FWD_MAC((R9)(BX*8), Y8, Y1, Y11)
	FWD_MAC((R10)(BX*8), Y8, Y2, Y12)
	FWD_MAC((R11)(BX*8), Y8, Y3, Y13)
	FWD_MAC((R8)(BX*8), Y9, Y4, Y10)
	FWD_MAC((R9)(BX*8), Y9, Y5, Y11)
	FWD_MAC((R10)(BX*8), Y9, Y6, Y12)
	FWD_MAC((R11)(BX*8), Y9, Y7, Y13)
	JMP          fwd_remnext

fwd_seltap:
	VMOVUPD      (R8)(BX*8), Y10
	FWD_SEL(Y10, Y8, Y13, Y0, Y11)
	FWD_SEL(Y10, Y9, Y14, Y4, Y12)
	VMOVUPD      (R9)(BX*8), Y10
	FWD_SEL(Y10, Y8, Y13, Y1, Y11)
	FWD_SEL(Y10, Y9, Y14, Y5, Y12)
	VMOVUPD      (R10)(BX*8), Y10
	FWD_SEL(Y10, Y8, Y13, Y2, Y11)
	FWD_SEL(Y10, Y9, Y14, Y6, Y12)
	VMOVUPD      (R11)(BX*8), Y10
	FWD_SEL(Y10, Y8, Y13, Y3, Y11)
	FWD_SEL(Y10, Y9, Y14, Y7, Y12)

fwd_remnext:
	INCQ         DX
	CMPQ         DX, CX
	JL           fwd_remtap

fwd_store:
	MOVQ 24(SP), AX
	MOVQ 32(SP), BX
	FWD_STORE(0, Y0, Y4)
	FWD_STORE(1, Y1, Y5)
	FWD_STORE(2, Y2, Y6)
	FWD_STORE(3, Y3, Y7)
	ADDQ $192, R13
	CMPQ R13, R14
	JL   fwd_quad
	MOVQ 0(SP), AX
	ADDQ $2, AX
	MOVQ AX, 0(SP)
	CMPQ AX, b_len+80(FP)
	JL   fwd_oc
	VZEROUPPER
	RET

// CONV_T4 transposes the 4×4 block in rows a, b, c, d in place (row q
// becomes column q), t0..t3 clobbered.
#define CONV_T4(a, b, c, d, t0, t1, t2, t3) \
	VUNPCKLPD  b, a, t0; \
	VUNPCKHPD  b, a, t1; \
	VUNPCKLPD  d, c, t2; \
	VUNPCKHPD  d, c, t3; \
	VPERM2F128 $0x20, t2, t0, a; \
	VPERM2F128 $0x20, t3, t1, b; \
	VPERM2F128 $0x31, t2, t0, c; \
	VPERM2F128 $0x31, t3, t1, d

// GW_MAC adds broadcast(tap) · Y8 into acc, tmp clobbered.
#define GW_MAC(tap, acc, tmp) \
	VBROADCASTSD tap, tmp; \
	VMULPD       Y8, tmp, tmp; \
	VADDPD       tmp, acc, acc

// GW_ADD adds row lo (taps r0..r0+3) and hi (r0+4..r0+7) into the gw row
// at DI under the tap masks Y12, Y13.
#define GW_ADD(lo, hi) \
	VMASKMOVPD (DI), Y12, Y14; \
	VADDPD     lo, Y14, Y14; \
	VMASKMOVPD Y14, Y12, (DI); \
	VMASKMOVPD 32(DI), Y13, Y15; \
	VADDPD     hi, Y15, Y15; \
	VMASKMOVPD Y15, Y13, 32(DI)

// GW_PIX8 adds pixel p's products into the eight accumulators of an
// eight-tap tile: CX points at pix[p], DX at the pixel's gradient lanes.
#define GW_PIX8 \
	MOVQ    (CX), BX; \
	VMOVUPD (DX), Y8; \
	GW_MAC((R8)(BX*8), Y0, Y9); \
	GW_MAC((R9)(BX*8), Y1, Y10); \
	GW_MAC((R10)(BX*8), Y2, Y11); \
	GW_MAC((R11)(BX*8), Y3, Y12); \
	GW_MAC((R12)(BX*8), Y4, Y9); \
	GW_MAC((R13)(BX*8), Y5, Y10); \
	GW_MAC((R14)(BX*8), Y6, Y11); \
	GW_MAC((SI)(BX*8), Y7, Y12); \
	ADDQ    $8, CX; \
	ADDQ    DI, DX

// GW_PIX4 is GW_PIX8 for a four-tap tile.
#define GW_PIX4 \
	MOVQ    (CX), BX; \
	VMOVUPD (DX), Y8; \
	GW_MAC((R8)(BX*8), Y0, Y9); \
	GW_MAC((R9)(BX*8), Y1, Y10); \
	GW_MAC((R10)(BX*8), Y2, Y11); \
	GW_MAC((R11)(BX*8), Y3, Y12); \
	ADDQ    $8, CX; \
	ADDQ    DI, DX

// GW_TAP loads the pointer to tap r0+k of the padded input (AX) into reg,
// BX pointing at taps[r0].
#define GW_TAP(k, reg) \
	MOVQ (8*k)(BX), reg; \
	LEAQ (AX)(reg*8), reg

// func convWeightGradAVX2(gw, gb, xp, gt []float64, taps, pix []int, nTaps, outC int)
// One sample's weight and bias gradients: gt is the gradient
// pixel-major, its channels rounded up to four (lane q = channel 4c+q).
// For each quad of channels, tiles of eight taps r0..r0+7 (taps is
// zero-padded to a multiple of eight), or four for the last at most
// four: for every pixel p in order, accumulator k adds the broadcast
// padded input at pix[p] + taps[r0+k] times the pixel's four gradient
// lanes, each lane its own dot from +0, left to right. The tile is
// transposed to four channel rows of taps and added into gw, the taps
// past nTaps and the channels past outC left alone. The quad's first
// tile also sums the gradient lanes themselves, pixel by pixel from +0,
// and adds those bias gradients into gb.
// Locals: 0 channel quad c, 8 r0.
TEXT ·convWeightGradAVX2(SB), NOSPLIT, $16-160
	MOVQ $0, 0(SP)

gw_quad:
	MOVQ $0, 8(SP)

gw_tile:
	MOVQ xp_base+48(FP), AX
	MOVQ taps_base+96(FP), BX
	MOVQ 8(SP), CX
	LEAQ (BX)(CX*8), BX
	GW_TAP(0, R8)
	GW_TAP(1, R9)
	GW_TAP(2, R10)
	GW_TAP(3, R11)
	MOVQ outC+152(FP), DI
	ADDQ $3, DI
	ANDQ $-4, DI
	SHLQ $3, DI
	MOVQ 0(SP), DX
	SHLQ $5, DX
	ADDQ gt_base+72(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ nTaps+144(FP), AX
	SUBQ CX, AX
	CMPQ AX, $4
	MOVQ pix_base+120(FP), CX
	JLE  gw_four
	MOVQ xp_base+48(FP), AX
	GW_TAP(4, R12)
	GW_TAP(5, R13)
	GW_TAP(6, R14)
	GW_TAP(7, SI)
	MOVQ pix_len+128(FP), AX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y13, Y13, Y13
	CMPQ   8(SP), $0
	JNE    gw_pixel

gw_pixelb:
	GW_PIX8
	VADDPD Y8, Y13, Y13
	DECQ   AX
	JNZ    gw_pixelb
	JMP    gw_pixeldone

gw_pixel:
	GW_PIX8
	DECQ AX
	JNZ  gw_pixel

gw_pixeldone:
	CONV_T4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	JMP gw_store

gw_four:
	MOVQ   pix_len+128(FP), AX
	VXORPD Y13, Y13, Y13
	CMPQ   8(SP), $0
	JNE    gw_pixel4

gw_pixel4b:
	GW_PIX4
	VADDPD Y8, Y13, Y13
	DECQ   AX
	JNZ    gw_pixel4b
	JMP    gw_store

gw_pixel4:
	GW_PIX4
	DECQ AX
	JNZ  gw_pixel4

gw_store:
	// The first tile also summed the quad's bias gradients in Y13: add
	// them into gb under the mask of the quad's channels.
	CMPQ       8(SP), $0
	JNE        gw_taps
	MOVQ       outC+152(FP), CX
	MOVQ       0(SP), AX
	SHLQ       $2, AX
	SUBQ       AX, CX
	MOVQ       $4, BX
	CMPQ       CX, BX
	CMOVQGT    BX, CX
	SHLQ       $5, CX
	LEAQ       convLanes<>(SB), DX
	VMOVDQU    (DX)(CX*1), Y14
	MOVQ       gb_base+24(FP), SI
	LEAQ       (SI)(AX*8), SI
	VMASKMOVPD (SI), Y14, Y15
	VADDPD     Y13, Y15, Y15
	VMASKMOVPD Y15, Y14, (SI)

gw_taps:
	CONV_T4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	// Y12, Y13 = the masks of min(m, 4) and clamp(m−4, 0, 4) lanes, m the
	// taps left from r0.
	MOVQ    nTaps+144(FP), AX
	SUBQ    8(SP), AX
	MOVQ    $4, BX
	MOVQ    AX, CX
	CMPQ    CX, BX
	CMOVQGT BX, CX
	SHLQ    $5, CX
	LEAQ    convLanes<>(SB), DX
	VMOVDQU (DX)(CX*1), Y12
	SUBQ    $4, AX
	MOVQ    $0, CX
	CMPQ    AX, CX
	CMOVQLT CX, AX
	CMPQ    AX, BX
	CMOVQGT BX, AX
	SHLQ    $5, AX
	VMOVDQU (DX)(AX*1), Y13
	// DI = gw row of channel 4c at tap r0, SI = row stride, CX = channels
	// left in the quad; a four-tap tile (Y13 empty) moves r0 on by four
	MOVQ    nTaps+144(FP), SI
	MOVQ    0(SP), AX
	SHLQ    $2, AX
	MOVQ    outC+152(FP), CX
	SUBQ    AX, CX
	IMULQ   SI, AX
	ADDQ    8(SP), AX
	SHLQ    $3, SI
	MOVQ    gw_base+0(FP), DI
	LEAQ    (DI)(AX*8), DI
	GW_ADD(Y0, Y4)
	CMPQ    CX, $1
	JLE     gw_next
	ADDQ    SI, DI
	GW_ADD(Y1, Y5)
	CMPQ    CX, $2
	JLE     gw_next
	ADDQ    SI, DI
	GW_ADD(Y2, Y6)
	CMPQ    CX, $3
	JLE     gw_next
	ADDQ    SI, DI
	GW_ADD(Y3, Y7)

gw_next:
	MOVQ 8(SP), AX
	ADDQ $8, AX
	MOVQ AX, 8(SP)
	CMPQ AX, nTaps+144(FP)
	JL   gw_tile
	MOVQ 0(SP), AX
	INCQ AX
	MOVQ AX, 0(SP)
	SHLQ $2, AX
	CMPQ AX, outC+152(FP)
	JL   gw_quad
	VZEROUPPER
	RET

// The input-gradient tile holds four taps t..t+3 × two runs (Y0..Y3
// run 0, Y4..Y7 run 1), or the last tap alone × two runs (Y0, Y4). Its
// runs are four consecutive pixels of the plane in row-major order,
// rows included: a lane whose tap reaches past the image edge reads a
// neighbouring row's gradient, and its mask clears it. The padded
// gradient of run r under tap t+j is at DI + the index register of (r,
// j) — R8..R11 for run 0, R12, R13, R14, SI for run 1 — DI advancing by
// a plane per output channel; BX points at w[oc][ic][t].

// GIN_MAC adds w · mem into acc, tmp clobbered.
#define GIN_MAC(mem, w, acc, tmp) \
	VMULPD mem, w, tmp; \
	VADDPD tmp, acc, acc

// GIN_SEL is GIN_MAC where the lane of m is set (the weight is
// non-zero), acc's bits kept elsewhere.
#define GIN_SEL(mem, w, m, acc) \
	VMULPD    mem, w, Y13; \
	VADDPD    Y13, acc, Y13; \
	VBLENDVPD m, Y13, acc, acc

// GIN_SELTAP adds tap j (weight at 8j(BX)) of both runs where its weight
// is non-zero (Y12 is +0).
#define GIN_SELTAP(j, m0, m1, acc0, acc1) \
	VBROADCASTSD (8*j)(BX), Y8; \
	VCMPPD       $4, Y12, Y8, Y9; \
	GIN_SEL((DI)(m0*1), Y8, Y9, acc0); \
	GIN_SEL((DI)(m1*1), Y8, Y9, acc1)

// GIN_FOLD adds the tile's tap sums of run r — masked to +0 where the
// output pixel lies outside the image (masks of run r, tap t at DX) —
// into the run's running sum at (32r)(SI), in tap order.
#define GIN_FOLD(r, a0, a1, a2, a3) \
	VANDPD  (288*r)(DX), a0, a0; \
	VANDPD  (288*r+32)(DX), a1, a1; \
	VANDPD  (288*r+64)(DX), a2, a2; \
	VANDPD  (288*r+96)(DX), a3, a3; \
	VMOVUPD (32*r)(SI), Y8; \
	VADDPD  a0, Y8, Y8; \
	VADDPD  a1, Y8, Y8; \
	VADDPD  a2, Y8, Y8; \
	VADDPD  a3, Y8, Y8; \
	VMOVUPD Y8, (32*r)(SI)

#define GIN_FOLD1(r, a0) \
	VANDPD  (288*r)(DX), a0, a0; \
	VMOVUPD (32*r)(SI), Y8; \
	VADDPD  a0, Y8, Y8; \
	VMOVUPD Y8, (32*r)(SI)

// GIN_IDX loads into reg the byte offset of run r's padded gradient
// under tap t+j (AX = &goff[t], CX = the pair's first vecs entry).
#define GIN_IDX(r, j, reg) \
	MOVQ (48*r)(CX), reg; \
	ADDQ (8*j)(AX), reg; \
	SHLQ $3, reg

// GIN_STORE stores run r's sum at (32r)(SI) into gin at DI under the
// run's lane mask (vecs entry at CX).
#define GIN_STORE(r) \
	MOVQ       (48*r+8)(CX), BX; \
	VMOVUPD    (32*r)(SI), Y0; \
	VMOVDQU    (48*r+16)(CX), Y1; \
	VMASKMOVPD Y0, Y1, (DI)(BX*8)

// func convInputGradAVX2(gin, gp, w []float64, vecs []int, masks []uint64, sums []float64, goff []int, inC, outC, hw, plane int)
// One sample's input gradient for a 3×3 kernel: gp is the gradient as
// outC planes (plane long), goff[t] the offset of the output pixel an
// input pixel reaches under tap t, vecs the runs (an even count). For
// each input channel each run's sum starts at +0 in sums; then tile by
// tile, each accumulator sums from +0 over the output channels in order
// the broadcast weight times the gradient under its tap, the last outC
// mod 4 channels only where their weight is non-zero, and is masked to
// +0 where its output pixel lies outside the image (masks: nine per
// run) and added into the run's sum, tap after tap. The sums are stored
// into gin.
// Locals: 0 ic, 8 t, 16 the pair's first run.
TEXT ·convInputGradAVX2(SB), NOSPLIT, $24-200
	MOVQ $0, 0(SP)

gin_ic:
	// sums = +0
	VXORPD Y0, Y0, Y0
	MOVQ   sums_base+120(FP), SI
	MOVQ   vecs_len+80(FP), CX

gin_zero:
	VMOVUPD Y0, (SI)
	ADDQ    $32, SI
	SUBQ    $6, CX
	JNZ     gin_zero
	MOVQ    $0, 8(SP)

gin_tap:
	MOVQ $0, 16(SP)

gin_pair:
	// CX = the pair's vecs entries, AX = &goff[t]
	MOVQ 16(SP), CX
	LEAQ (CX)(CX*2), CX
	SHLQ $4, CX
	ADDQ vecs_base+72(FP), CX
	MOVQ 8(SP), AX
	SHLQ $3, AX
	ADDQ goff_base+144(FP), AX
	GIN_IDX(0, 0, R8)
	GIN_IDX(1, 0, R12)
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	CMPQ   8(SP), $8
	JEQ    gin_one
	GIN_IDX(0, 1, R9)
	GIN_IDX(0, 2, R10)
	GIN_IDX(0, 3, R11)
	GIN_IDX(1, 1, R13)
	GIN_IDX(1, 2, R14)
	GIN_IDX(1, 3, SI)
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   gp_base+24(FP), DI
	MOVQ   0(SP), BX
	LEAQ   (BX)(BX*8), BX
	ADDQ   8(SP), BX
	SHLQ   $3, BX
	ADDQ   w_base+48(FP), BX
	MOVQ   plane+192(FP), AX
	SHLQ   $3, AX
	MOVQ   inC+168(FP), DX
	LEAQ   (DX)(DX*8), DX
	SHLQ   $3, DX
	MOVQ   outC+176(FP), CX
	SHRQ   $2, CX
	JZ     gin_rem4

gin_oc4:
	VBROADCASTSD (BX), Y8
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	GIN_MAC((DI)(R8*1), Y8, Y0, Y12)
	GIN_MAC((DI)(R12*1), Y8, Y4, Y13)
	GIN_MAC((DI)(R9*1), Y9, Y1, Y14)
	GIN_MAC((DI)(R13*1), Y9, Y5, Y15)
	GIN_MAC((DI)(R10*1), Y10, Y2, Y12)
	GIN_MAC((DI)(R14*1), Y10, Y6, Y13)
	GIN_MAC((DI)(R11*1), Y11, Y3, Y14)
	GIN_MAC((DI)(SI*1), Y11, Y7, Y15)
	ADDQ         AX, DI
	ADDQ         DX, BX
	VBROADCASTSD (BX), Y8
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	GIN_MAC((DI)(R8*1), Y8, Y0, Y12)
	GIN_MAC((DI)(R12*1), Y8, Y4, Y13)
	GIN_MAC((DI)(R9*1), Y9, Y1, Y14)
	GIN_MAC((DI)(R13*1), Y9, Y5, Y15)
	GIN_MAC((DI)(R10*1), Y10, Y2, Y12)
	GIN_MAC((DI)(R14*1), Y10, Y6, Y13)
	GIN_MAC((DI)(R11*1), Y11, Y3, Y14)
	GIN_MAC((DI)(SI*1), Y11, Y7, Y15)
	ADDQ         AX, DI
	ADDQ         DX, BX
	VBROADCASTSD (BX), Y8
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	GIN_MAC((DI)(R8*1), Y8, Y0, Y12)
	GIN_MAC((DI)(R12*1), Y8, Y4, Y13)
	GIN_MAC((DI)(R9*1), Y9, Y1, Y14)
	GIN_MAC((DI)(R13*1), Y9, Y5, Y15)
	GIN_MAC((DI)(R10*1), Y10, Y2, Y12)
	GIN_MAC((DI)(R14*1), Y10, Y6, Y13)
	GIN_MAC((DI)(R11*1), Y11, Y3, Y14)
	GIN_MAC((DI)(SI*1), Y11, Y7, Y15)
	ADDQ         AX, DI
	ADDQ         DX, BX
	VBROADCASTSD (BX), Y8
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	GIN_MAC((DI)(R8*1), Y8, Y0, Y12)
	GIN_MAC((DI)(R12*1), Y8, Y4, Y13)
	GIN_MAC((DI)(R9*1), Y9, Y1, Y14)
	GIN_MAC((DI)(R13*1), Y9, Y5, Y15)
	GIN_MAC((DI)(R10*1), Y10, Y2, Y12)
	GIN_MAC((DI)(R14*1), Y10, Y6, Y13)
	GIN_MAC((DI)(R11*1), Y11, Y3, Y14)
	GIN_MAC((DI)(SI*1), Y11, Y7, Y15)
	ADDQ         AX, DI
	ADDQ         DX, BX
	DECQ         CX
	JNZ          gin_oc4

gin_rem4:
	MOVQ   outC+176(FP), CX
	ANDQ   $3, CX
	JZ     gin_fold4
	VXORPD Y12, Y12, Y12

gin_remoc4:
	GIN_SELTAP(0, R8, R12, Y0, Y4)
	GIN_SELTAP(1, R9, R13, Y1, Y5)
	GIN_SELTAP(2, R10, R14, Y2, Y6)
	GIN_SELTAP(3, R11, SI, Y3, Y7)
	ADDQ AX, DI
	ADDQ DX, BX
	DECQ CX
	JNZ  gin_remoc4

gin_fold4:
	MOVQ 16(SP), AX
	LEAQ (AX)(AX*8), DX
	ADDQ 8(SP), DX
	SHLQ $5, DX
	ADDQ masks_base+96(FP), DX
	SHLQ $5, AX
	MOVQ sums_base+120(FP), SI
	ADDQ AX, SI
	GIN_FOLD(0, Y0, Y1, Y2, Y3)
	GIN_FOLD(1, Y4, Y5, Y6, Y7)
	JMP  gin_nextpair

gin_one:
	MOVQ gp_base+24(FP), DI
	MOVQ 0(SP), BX
	LEAQ (BX)(BX*8), BX
	ADDQ 8(SP), BX
	SHLQ $3, BX
	ADDQ w_base+48(FP), BX
	MOVQ plane+192(FP), AX
	SHLQ $3, AX
	MOVQ inC+168(FP), DX
	LEAQ (DX)(DX*8), DX
	SHLQ $3, DX
	MOVQ outC+176(FP), CX
	ANDQ $-4, CX
	JZ   gin_rem1

gin_oc1:
	VBROADCASTSD (BX), Y8
	GIN_MAC((DI)(R8*1), Y8, Y0, Y12)
	GIN_MAC((DI)(R12*1), Y8, Y4, Y13)
	ADDQ         AX, DI
	ADDQ         DX, BX
	DECQ         CX
	JNZ          gin_oc1

gin_rem1:
	MOVQ   outC+176(FP), CX
	ANDQ   $3, CX
	JZ     gin_fold1
	VXORPD Y12, Y12, Y12

gin_remoc1:
	GIN_SELTAP(0, R8, R12, Y0, Y4)
	ADDQ AX, DI
	ADDQ DX, BX
	DECQ CX
	JNZ  gin_remoc1

gin_fold1:
	MOVQ 16(SP), AX
	LEAQ (AX)(AX*8), DX
	ADDQ 8(SP), DX
	SHLQ $5, DX
	ADDQ masks_base+96(FP), DX
	SHLQ $5, AX
	MOVQ sums_base+120(FP), SI
	ADDQ AX, SI
	GIN_FOLD1(0, Y0)
	GIN_FOLD1(1, Y4)

gin_nextpair:
	MOVQ 16(SP), AX
	ADDQ $2, AX
	MOVQ AX, 16(SP)
	LEAQ (AX)(AX*2), AX
	SHLQ $1, AX
	CMPQ AX, vecs_len+80(FP)
	JL   gin_pair
	MOVQ 8(SP), AX
	ADDQ $4, AX
	MOVQ AX, 8(SP)
	CMPQ AX, $9
	JL   gin_tap

	// gin[ic] = the sums, under each run's lane mask
	MOVQ  hw+184(FP), DI
	IMULQ 0(SP), DI
	SHLQ  $3, DI
	ADDQ  gin_base+0(FP), DI
	MOVQ  sums_base+120(FP), SI
	MOVQ  vecs_base+72(FP), CX
	MOVQ  vecs_len+80(FP), DX

gin_store:
	GIN_STORE(0)
	GIN_STORE(1)
	ADDQ $64, SI
	ADDQ $96, CX
	SUBQ $12, DX
	JNZ  gin_store
	MOVQ 0(SP), AX
	INCQ AX
	MOVQ AX, 0(SP)
	CMPQ AX, inC+168(FP)
	JL   gin_ic
	VZEROUPPER
	RET

// func convPadAVX2(dst, src []float64, planes, h, w, wp, plane int)
// Copies planes·h rows of w elements, back to back in src, into dst: row
// i of plane c starts at c·plane + i·wp.
TEXT ·convPadAVX2(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ w+64(FP), DX
	MOVQ wp+72(FP), R9
	SHLQ $3, R9
	MOVQ plane+80(FP), R10
	SHLQ $3, R10
	MOVQ planes+48(FP), R11
	TESTQ R11, R11
	JZ   pad_done

pad_plane:
	MOVQ DI, R8
	MOVQ h+56(FP), R12

pad_row:
	XORQ AX, AX
	MOVQ DX, CX
	SUBQ $4, CX
	JL   pad_tail

pad_loop4:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD Y0, (R8)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     pad_loop4

pad_tail:
	CMPQ AX, DX
	JGE  pad_next

pad_loop1:
	MOVQ (SI)(AX*8), BX
	MOVQ BX, (R8)(AX*8)
	INCQ AX
	CMPQ AX, DX
	JL   pad_loop1

pad_next:
	LEAQ (SI)(DX*8), SI
	ADDQ R9, R8
	DECQ R12
	JNZ  pad_row
	ADDQ R10, DI
	DECQ R11
	JNZ  pad_plane

pad_done:
	VZEROUPPER
	RET

// func convTransposeAVX2(gt, g []float64, outC, hw int)
// gt[q·oc4 + oc] = g[oc·hw + q] for every channel oc < outC and pixel q
// < hw, oc4 = ⌈outC/4⌉·4: four channels by four pixels through CONV_T4,
// pixel by pixel in the tail. The lanes of the last quad past outC get
// copies of its first channel.
TEXT ·convTransposeAVX2(SB), NOSPLIT, $0-64
	MOVQ outC+48(FP), R12
	MOVQ hw+56(FP), R13
	MOVQ R13, R14
	SHLQ $3, R14
	LEAQ 3(R12), DX
	ANDQ $-4, DX
	SHLQ $3, DX
	MOVQ g_base+24(FP), R8
	MOVQ gt_base+0(FP), DI

tr_quad:
	// R8..R11 = the quad's channel rows, a missing one repeating R8; R12
	// counts the channels left
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	MOVQ R12, AX
	CMPQ AX, $1
	JLE  tr_rows
	LEAQ (R8)(R14*1), R9
	CMPQ AX, $2
	JLE  tr_rows
	LEAQ (R8)(R14*2), R10
	CMPQ AX, $3
	JLE  tr_rows
	LEAQ (R10)(R14*1), R11

tr_rows:
	MOVQ DI, SI
	XORQ AX, AX
	MOVQ R13, CX
	SUBQ $4, CX
	JL   tr_tail

tr_loop4:
	VMOVUPD (R8)(AX*8), Y0
	VMOVUPD (R9)(AX*8), Y1
	VMOVUPD (R10)(AX*8), Y2
	VMOVUPD (R11)(AX*8), Y3
	CONV_T4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (SI)
	ADDQ    DX, SI
	VMOVUPD Y1, (SI)
	ADDQ    DX, SI
	VMOVUPD Y2, (SI)
	ADDQ    DX, SI
	VMOVUPD Y3, (SI)
	ADDQ    DX, SI
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     tr_loop4

tr_tail:
	CMPQ AX, R13
	JGE  tr_next

tr_loop1:
	MOVQ (R8)(AX*8), BX
	MOVQ BX, 0(SI)
	MOVQ (R9)(AX*8), BX
	MOVQ BX, 8(SI)
	MOVQ (R10)(AX*8), BX
	MOVQ BX, 16(SI)
	MOVQ (R11)(AX*8), BX
	MOVQ BX, 24(SI)
	ADDQ DX, SI
	INCQ AX
	CMPQ AX, R13
	JL   tr_loop1

tr_next:
	LEAQ (R8)(R14*4), R8
	ADDQ $32, DI
	SUBQ $4, R12
	JG   tr_quad
	VZEROUPPER
	RET
