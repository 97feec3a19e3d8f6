//go:build !purego

// AVX2 bodies of the hot kernels in kernels.go (DESIGN.md §7, "SIMD
// kernels"). Every routine here is bit-identical to the Go loop it
// stands in for, by construction:
//
//   - a vector lane holds a *different output element* (AXPY family,
//     the Scale/ScaleAdd/ReLU sweeps, Adam) or a *different
//     accumulator* (Dot4 family and the MatVec tile, after a 4×4 lane
//     transpose of four rows) — never a share of one accumulator, so
//     every sum still runs strictly left to right;
//   - only VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD and their scalar forms,
//     which round each lane exactly as MULSD/ADDSD/… round a scalar, and
//     the compare, select and mask forms of the ReLU pair, the masked
//     spans and the max pool (VPCMPGTQ/VPCMPEQQ/VPANDN, VANDPD,
//     VCMPPD/VBLENDVPD), which move bits and round nothing. No FMA,
//     anywhere: a fused multiply-add rounds once where
//     the Go code rounds twice (kernels_simd_test.go fails on the
//     mnemonic);
//   - operations are issued per element in the order the Go source
//     evaluates them.
//
// Each routine finishes its own tail (n mod 4, or all of a short n) with
// the scalar forms of the same instructions, and executes VZEROUPPER
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

// func axpy4x2AVX2(ya, yb, x, wa, wb []float64, wStride, groups int)
// For each of groups successive quads of len(ya)-length rows of x, the
// axpy4 chain for ya with that quad's four wa coefficients and for yb
// with its four wb coefficients (both wStride elements apart), each
// shared x element loaded once. The group loop only re-points the row
// and coefficient registers: per element the instructions are those of
// one quad, repeated in quad order.
TEXT ·axpy4x2AVX2(SB), NOSPLIT, $0-136
	MOVQ ya_base+0(FP), DI
	MOVQ ya_len+8(FP), CX
	MOVQ yb_base+24(FP), SI
	MOVQ x_base+48(FP), R8
	MOVQ wa_base+72(FP), R12
	MOVQ wb_base+96(FP), R13
	MOVQ wStride+120(FP), DX
	SHLQ $3, DX
	MOVQ CX, BX
	SHLQ $3, BX
	SUBQ $4, CX
	CMPQ groups+128(FP), $0
	JLE  axpy4x2_done

axpy4x2_group:
	LEAQ (R8)(BX*1), R9
	LEAQ (R8)(BX*2), R10
	LEAQ (R9)(BX*2), R11
	VBROADCASTSD (R12), Y8
	VBROADCASTSD (R13), Y12
	ADDQ DX, R12
	ADDQ DX, R13
	VBROADCASTSD (R12), Y9
	VBROADCASTSD (R13), Y13
	ADDQ DX, R12
	ADDQ DX, R13
	VBROADCASTSD (R12), Y10
	VBROADCASTSD (R13), Y14
	ADDQ DX, R12
	ADDQ DX, R13
	VBROADCASTSD (R12), Y11
	VBROADCASTSD (R13), Y15
	ADDQ DX, R12
	ADDQ DX, R13
	XORQ AX, AX
	TESTQ CX, CX
	JL   axpy4x2_tail

axpy4x2_loop4:
	VMOVUPD (R8)(AX*8), Y0
	VMOVUPD (R9)(AX*8), Y1
	VMOVUPD (R10)(AX*8), Y2
	VMOVUPD (R11)(AX*8), Y3
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  Y0, Y8, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  Y1, Y9, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  Y2, Y10, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  Y3, Y11, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y5
	VMULPD  Y0, Y12, Y7
	VADDPD  Y7, Y5, Y5
	VMULPD  Y1, Y13, Y7
	VADDPD  Y7, Y5, Y5
	VMULPD  Y2, Y14, Y7
	VADDPD  Y7, Y5, Y5
	VMULPD  Y3, Y15, Y7
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y5, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     axpy4x2_loop4

axpy4x2_tail:
	CMPQ AX, ya_len+8(FP)
	JGE  axpy4x2_next

axpy4x2_loop1:
	VMOVSD (R8)(AX*8), X0
	VMOVSD (R9)(AX*8), X1
	VMOVSD (R10)(AX*8), X2
	VMOVSD (R11)(AX*8), X3
	VMOVSD (DI)(AX*8), X4
	VMULSD X0, X8, X6
	VADDSD X6, X4, X4
	VMULSD X1, X9, X6
	VADDSD X6, X4, X4
	VMULSD X2, X10, X6
	VADDSD X6, X4, X4
	VMULSD X3, X11, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(AX*8)
	VMOVSD (SI)(AX*8), X5
	VMULSD X0, X12, X7
	VADDSD X7, X5, X5
	VMULSD X1, X13, X7
	VADDSD X7, X5, X5
	VMULSD X2, X14, X7
	VADDSD X7, X5, X5
	VMULSD X3, X15, X7
	VADDSD X7, X5, X5
	VMOVSD X5, (SI)(AX*8)
	INCQ   AX
	CMPQ   AX, ya_len+8(FP)
	JL     axpy4x2_loop1

axpy4x2_next:
	LEAQ (R11)(BX*1), R8
	DECQ groups+128(FP)
	JNZ  axpy4x2_group

axpy4x2_done:
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

// func maskedCopyAVX2(dst, src []float64, mask []uint64)
// dst[i] = src[i] with every bit cleared where mask[i]'s is, i < len(dst).
TEXT ·maskedCopyAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ mask_base+48(FP), DX
	XORQ AX, AX
	SUBQ $4, CX
	JL   maskcopy_tail

maskcopy_loop4:
	VMOVUPD (SI)(AX*8), Y0
	VANDPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     maskcopy_loop4

maskcopy_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  maskcopy_done

maskcopy_loop1:
	MOVQ (SI)(AX*8), BX
	ANDQ (DX)(AX*8), BX
	MOVQ BX, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   maskcopy_loop1

maskcopy_done:
	VZEROUPPER
	RET

// func maskedAddAVX2(dst, src []float64, mask []uint64)
// dst[i] = dst[i] + (src[i] masked by mask[i]), i < len(dst).
TEXT ·maskedAddAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ mask_base+48(FP), DX
	XORQ AX, AX
	SUBQ $4, CX
	JL   maskadd_tail

maskadd_loop4:
	VMOVUPD (SI)(AX*8), Y0
	VANDPD  (DX)(AX*8), Y0, Y0
	VMOVUPD (DI)(AX*8), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     maskadd_loop4

maskadd_tail:
	ADDQ $4, CX
	CMPQ AX, CX
	JGE  maskadd_done

maskadd_loop1:
	VMOVSD (SI)(AX*8), X0
	VMOVSD (DX)(AX*8), X2
	VANDPD X2, X0, X0
	VMOVSD (DI)(AX*8), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JL     maskadd_loop1

maskadd_done:
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
