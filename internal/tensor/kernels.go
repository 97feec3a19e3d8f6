// Fused numeric kernels for the training hot path.
//
// Every kernel in this file preserves the left-to-right reduction order of
// the scalar reference loops in vec.go/mat.go: unrolled bodies feed a
// single accumulator in index order, and blocked loops visit the reduction
// dimension monotonically for every output element. That property is what
// keeps results bit-identical across parallelism settings (the PR 1
// determinism contract): a kernel is free to restructure *memory access*,
// never *floating-point association*. kernels_test.go pins each kernel to
// its scalar reference with exact (==) comparisons.
//
// On amd64 with AVX2 the AXPY/Dot4 families, the reduction-free sweeps
// (Scale, ScaleAdd, ReLU, ReLUGrad and the little-endian byte kernels
// DecodeLE and AddScaleLE),
// AdamStep and MatVec's 4-row × 8-sample tile hand vectors of at least
// simdMinLen elements, and MaxPool2x2 and the ConvPlan passes (conv.go)
// every call, to the assembly bodies in kernels_amd64.s, which are
// bit-identical to the Go loops below (lanes hold independent elements or independent
// accumulators, no FMA — DESIGN.md §7). The Go loops remain the
// specification, the path for short vectors, and the only path on other
// architectures and under -tags purego. Dot, Sum, SquaredNorm,
// SubThenSquaredNorm and DriftSums feed one accumulator per result and
// have no bit-identical vector form; they stay scalar everywhere. AdamStep's
// watched drift sums are ordered sums too: its assembly adds them one
// element at a time, in index order.
package tensor

import (
	"encoding/binary"
	"math"
)

// simdMinLen is the shortest vector dispatched to assembly. A call
// through the ABI0 wrapper (up to 26 argument words spilled to the stack,
// eight broadcasts, VZEROUPPER) costs 10–15 ns; measured on the reference
// box the Go loops win at 4 elements, the two break even at 6–7 and the
// assembly wins from 8. The conv passes (conv.go), whose planes are 4
// to 144 elements long, make one call per sample and pass and do not
// consult it.
const simdMinLen = 8

// dotUnrolled is the shared body of Dot: a 4-way unrolled product loop
// feeding one accumulator strictly left to right. The :i+4 capacity hints
// let the compiler drop bounds checks in the unrolled body.
//
//fda:noalloc
func dotUnrolled(a, b []float64) float64 {
	var s float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s += aa[0] * bb[0]
		s += aa[1] * bb[1]
		s += aa[2] * bb[2]
		s += aa[3] * bb[3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// axpyUnrolled is the shared body of AXPY: y += alpha*x, 4-way unrolled.
// Elements are independent, so unrolling only removes loop overhead and
// cannot change any result bit.
//
//fda:noalloc
func axpyUnrolled(alpha float64, x, y []float64) {
	n := len(y)
	if useAVX2 && n >= simdMinLen {
		_ = x[n-1] // the assembly reads x[:n] unchecked
		axpyAVX2(alpha, x, y)
		return
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		xx := x[i : i+4 : i+4]
		yy := y[i : i+4 : i+4]
		yy[0] += alpha * xx[0]
		yy[1] += alpha * xx[1]
		yy[2] += alpha * xx[2]
		yy[3] += alpha * xx[3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// SubThenSquaredNorm stores a−b into dst and returns ‖dst‖², fusing the
// Sub and SquaredNorm passes of the drift computation u = w − w0,
// ‖u‖² into one sweep. The sum accumulates left to right, so the result
// equals SquaredNorm(dst) after Sub(dst, a, b) bit for bit. dst may alias
// a or b.
//
//fda:noalloc
func SubThenSquaredNorm(dst, a, b []float64) float64 {
	checkLen("SubThenSquaredNorm", a, b)
	checkLen("SubThenSquaredNorm", dst, a)
	var s float64
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		dd := dst[i : i+4 : i+4]
		d0 := aa[0] - bb[0]
		dd[0] = d0
		s += d0 * d0
		d1 := aa[1] - bb[1]
		dd[1] = d1
		s += d1 * d1
		d2 := aa[2] - bb[2]
		dd[2] = d2
		s += d2 * d2
		d3 := aa[3] - bb[3]
		dd[3] = d3
		s += d3 * d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		dst[i] = d
		s += d * d
	}
	return s
}

// DriftSums returns ‖p − w0‖² and ⟨xi, p − w0⟩ without storing the drift:
// two independent accumulators, each fed left to right, so they give the
// bits of AdamStep's watched sums. It is the watch of the optimizers
// whose update sweep has no fused form (opt.Momentum).
//
//fda:noalloc
func DriftSums(p, w0, xi []float64) (sq, dot float64) {
	checkLen("DriftSums", w0, p)
	checkLen("DriftSums", xi, p)
	w0, xi = w0[:len(p)], xi[:len(p)]
	for i, pi := range p {
		d := pi - w0[i]
		sq += d * d
		dot += xi[i] * d
	}
	return sq, dot
}

// ScaleAdd computes v = c*v + x in place — the momentum-velocity update
// kernel v ← µv + g as one sweep instead of Scale followed by Add.
//
//fda:noalloc
func ScaleAdd(v []float64, c float64, x []float64) {
	checkLen("ScaleAdd", v, x)
	n := len(v)
	if useAVX2 && n >= simdMinLen {
		scaleAddAVX2(v, c, x)
		return
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		vv := v[i : i+4 : i+4]
		xx := x[i : i+4 : i+4]
		vv[0] = c*vv[0] + xx[0]
		vv[1] = c*vv[1] + xx[1]
		vv[2] = c*vv[2] + xx[2]
		vv[3] = c*vv[3] + xx[3]
	}
	for ; i < n; i++ {
		v[i] = c*v[i] + x[i]
	}
}

// ReLU stores max(x, 0) into dst, branchlessly: clearing all bits when
// the sign bit is set maps negative inputs and −0 to +0 and keeps
// non-negative inputs bit-exact, so the output equals the branching form
// for every finite input. Random activations make the sign branch
// unpredictable — the mask form trades it for three integer ops per
// element. dst may alias x.
//
//fda:noalloc
func ReLU(dst, x []float64) {
	checkLen("ReLU", dst, x)
	if useAVX2 && len(dst) >= simdMinLen {
		reluAVX2(dst, x)
		return
	}
	for i, v := range x {
		b := math.Float64bits(v)
		dst[i] = math.Float64frombits(b &^ uint64(int64(b)>>63))
	}
}

// ReLUGrad stores g masked by out ≠ 0 into dst, where out is a ReLU
// output: out is either strictly positive or +0, so "out > 0" is exactly
// "bits(out) ≠ 0", turned into an all-ones/all-zero mask. dst may alias
// g or out.
//
//fda:noalloc
func ReLUGrad(dst, g, out []float64) {
	checkLen("ReLUGrad", g, out)
	checkLen("ReLUGrad", dst, g)
	if useAVX2 && len(dst) >= simdMinLen {
		reluGradAVX2(dst, g, out)
		return
	}
	for i, v := range out {
		b := int64(math.Float64bits(v))
		mask := uint64((b | -b) >> 63)
		dst[i] = math.Float64frombits(math.Float64bits(g[i]) & mask)
	}
}

// Accumulate computes dst += src (an AXPY with alpha 1, without the
// multiplication), 4-way unrolled.
//
//fda:noalloc
func Accumulate(dst, src []float64) {
	checkLen("Accumulate", dst, src)
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		ss := src[i : i+4 : i+4]
		dd := dst[i : i+4 : i+4]
		dd[0] += ss[0]
		dd[1] += ss[1]
		dd[2] += ss[2]
		dd[3] += ss[3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// The little-endian byte kernels: float64 vectors to and from the wire
// format of the socket fabric's float payloads (eight little-endian bytes
// an element), and the fabric's mean fold straight from those bytes. A
// byte view may start at any offset; its length is checked against the
// vector's, which sets the element count. In the Go loops' 4-wide form
// the loop condition proves every index in range, so the body carries no
// bounds check.

// EncodeLE stores v into dst[:8·len(v)], each element's bits unchanged
// (NaN payloads included). It has no assembly body: where a float64's
// memory image is its encoding, ViewLE gives the bytes without a pass.
//
//fda:noalloc
func EncodeLE(dst []byte, v []float64) {
	b := dst[:8*len(v)]
	for len(v) >= 4 && len(b) >= 32 {
		binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(b[24:32], math.Float64bits(v[3]))
		v, b = v[4:], b[32:]
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// AppendLE appends v's EncodeLE bytes to dst. A dst too short for them
// grows once, to exactly the length needed.
//
//fda:noalloc
func AppendLE(dst []byte, v []float64) []byte {
	at, end := len(dst), len(dst)+8*len(v)
	if cap(dst) < end {
		dst = append(make([]byte, 0, end), dst...) //fda:allow(noalloc, a short dst grows once to the length needed)
	}
	dst = dst[:end]
	EncodeLE(dst[at:], v)
	return dst
}

// DecodeLE stores into dst the len(dst) elements encoded in b[:8·len(dst)],
// each element's bits unchanged.
//
//fda:noalloc
func DecodeLE(dst []float64, b []byte) {
	b = b[:8*len(dst)]
	if useAVX2 && len(dst) >= simdMinLen {
		decodeLEAVX2(dst, b)
		return
	}
	d := dst
	for len(d) >= 4 && len(b) >= 32 {
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))
		d[1] = math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
		d[2] = math.Float64frombits(binary.LittleEndian.Uint64(b[16:24]))
		d[3] = math.Float64frombits(binary.LittleEndian.Uint64(b[24:32]))
		d, b = d[4:], b[32:]
	}
	for i := range d {
		d[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// AddScaleLE computes d[i] = (d[i] + x[i])·s, x being the len(d)
// elements encoded in b[:8·len(d)]: one add, then one multiply, each
// rounded. s = 1 is exact, so with it the fold is the plain sum.
//
//fda:noalloc
func AddScaleLE(d []float64, b []byte, s float64) {
	b = b[:8*len(d)]
	if useAVX2 && len(d) >= simdMinLen {
		addScaleLEAVX2(d, b, s)
		return
	}
	for len(d) >= 4 && len(b) >= 32 {
		d[0] = (d[0] + math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))) * s
		d[1] = (d[1] + math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))) * s
		d[2] = (d[2] + math.Float64frombits(binary.LittleEndian.Uint64(b[16:24]))) * s
		d[3] = (d[3] + math.Float64frombits(binary.LittleEndian.Uint64(b[24:32]))) * s
		d, b = d[4:], b[32:]
	}
	for i := range d {
		d[i] = (d[i] + math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))) * s
	}
}

// MaxPool2x2 is the 2×2 max pool over image rows of even width w stored
// back to back in x — a micro-batch's planes, whose output rows follow one
// another the same way. Output o = R·w/2 + j takes the largest of the
// window x[a], x[a+1], x[a+w], x[a+w+1] at a = 2R·w + 2j, scanned in that
// order with a strict >: a tie (+0 against −0 included) keeps the first
// candidate, and a NaN wins only from the first position. arg[o] is the
// winner's index into x. The assembly scans four windows at a time with
// VCMPPD (GT_OQ, false on a NaN like Go's >) and VBLENDVPD in the same
// order: this loop without its unpredictable branches.
//
//fda:noalloc
func MaxPool2x2(y []float64, arg []int, x []float64, w int) {
	if w < 2 || w%2 != 0 || len(y)%(w/2) != 0 || len(arg) != len(y) || len(x) != 4*len(y) {
		lenPanic("MaxPool2x2 (whole rows of an even width)", len(x), 4*len(y))
	}
	if useAVX2 {
		maxPool2x2AVX2(y, arg, x, len(y)/(w/2), w)
		return
	}
	o := 0
	for top := 0; top < len(x); top += 2 * w {
		for a := top; a < top+w; a += 2 {
			i, best := a, x[a]
			if v := x[a+1]; v > best {
				i, best = a+1, v
			}
			if v := x[a+w]; v > best {
				i, best = a+w, v
			}
			if v := x[a+w+1]; v > best {
				i, best = a+w+1, v
			}
			y[o], arg[o] = best, i
			o++
		}
	}
}

// Sum returns the left-to-right sum of v.
//
//fda:noalloc
func Sum(v []float64) float64 {
	var s float64
	n := len(v)
	i := 0
	for ; i+4 <= n; i += 4 {
		vv := v[i : i+4 : i+4]
		s += vv[0]
		s += vv[1]
		s += vv[2]
		s += vv[3]
	}
	for ; i < n; i++ {
		s += v[i]
	}
	return s
}

// AXPY4 computes y += a0*x0 + a1*x1 + a2*x2 + a3*x3 in one sweep (four
// terms of axpyRows, under MatTVec and AddOuter): one load/store of y
// per four terms instead of four. Each element's partial sums chain in argument order, so the
// result is bit-identical to four sequential AXPY calls. An x may be y
// itself; operands must not overlap partially.
//
//fda:noalloc
func AXPY4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		// One branch on the hot path; the pairwise checks name the culprit.
		checkLen("AXPY4", x0, y)
		checkLen("AXPY4", x1, y)
		checkLen("AXPY4", x2, y)
		checkLen("AXPY4", x3, y)
	}
	if useAVX2 && n >= simdMinLen {
		axpy4AVX2(a0, a1, a2, a3, x0, x1, x2, x3, y)
		return
	}
	// Reslice to the common length so the compiler can drop the per-index
	// bounds checks in the fused loop.
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i := range y {
		s := y[i] + a0*x0[i]
		s += a1 * x1[i]
		s += a2 * x2[i]
		s += a3 * x3[i]
		y[i] = s
	}
}

// Dot4 returns the four inner products <a, x0..3> in one sweep over a
// (MatVec's last lone sample). Each accumulator runs strictly
// left to right, bit-identical to four separate Dot calls.
//
//fda:noalloc
func Dot4(a, x0, x1, x2, x3 []float64) (s0, s1, s2, s3 float64) {
	n := len(a)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		checkLen("Dot4", a, x0)
		checkLen("Dot4", a, x1)
		checkLen("Dot4", a, x2)
		checkLen("Dot4", a, x3)
	}
	if useAVX2 && n >= simdMinLen {
		return dot4AVX2(a, x0, x1, x2, x3)
	}
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i, av := range a {
		s0 += av * x0[i]
		s1 += av * x1[i]
		s2 += av * x2[i]
		s3 += av * x3[i]
	}
	return
}

// Dot4x2 is MatVec's 2×4 sample-pair micro-kernel: the eight inner
// products of {a, b} against {x0..x3}, loading each shared x element once.
// Every accumulator runs strictly left to right, bit-identical to eight
// separate Dot calls.
//
//fda:noalloc
func Dot4x2(a, b, x0, x1, x2, x3 []float64) (s0, s1, s2, s3, t0, t1, t2, t3 float64) {
	n := len(a)
	if len(b) != n || len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		checkLen("Dot4x2", a, b)
		checkLen("Dot4x2", a, x0)
		checkLen("Dot4x2", a, x1)
		checkLen("Dot4x2", a, x2)
		checkLen("Dot4x2", a, x3)
	}
	if useAVX2 && n >= simdMinLen {
		return dot4x2AVX2(a, b, x0, x1, x2, x3)
	}
	b, x0, x1, x2, x3 = b[:n], x0[:n], x1[:n], x2[:n], x3[:n]
	for i, av := range a {
		v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
		bv := b[i]
		s0 += av * v0
		s1 += av * v1
		s2 += av * v2
		s3 += av * v3
		t0 += bv * v0
		t1 += bv * v1
		t2 += bv * v2
		t3 += bv * v3
	}
	return
}

// AdamStep is the element loop of one Adam update (opt.Adam.Step): for
// every i it folds grads[i] into the moments m[i], v[i] and moves
// params[i] by the bias-corrected step, where b1c = 1−β1ᵗ and b2c = 1−β2ᵗ.
// A non-zero wd applies AdamW's decoupled decay to the updated weight.
// grads is only
// read; the four vectors must not overlap. The expression shapes —
// ((1−b2)·g)·g, (lr·(m/b1c)) / (√(v/b2c)+eps), (lr·wd)·p — are the
// specification the assembly reproduces operation for operation. Once
// b1c rounds to exactly 1 (t ≥ 356 for β1 = 0.9) the division by it is
// skipped: x/1 is x for every value the moment update can produce.
//
// A non-nil w0 sets a watch: the sweep also returns the drift of the
// updated weights, sq = ‖p − w0‖² and dot = ⟨xi, p − w0⟩, each summed left
// to right in its own accumulator — LinearFDA's local state without a
// second pass over the model. w0 and xi are only read and must not
// overlap params, m or v. With w0 nil both sums are zero.
//
//fda:noalloc
func AdamStep(params, grads, m, v []float64, b1, b2, lr, eps, b1c, b2c, wd float64, w0, xi []float64) (sq, dot float64) {
	n := len(params)
	watch := w0 != nil
	if len(grads) != n || len(m) != n || len(v) != n || watch && (len(w0) != n || len(xi) != n) {
		checkLen("AdamStep", grads, params)
		checkLen("AdamStep", m, params)
		checkLen("AdamStep", v, params)
		checkLen("AdamStep", w0, params)
		checkLen("AdamStep", xi, params)
	}
	if useAVX2 && n >= simdMinLen {
		return adamAVX2(params, grads, m, v, b1, b2, lr, eps, b1c, b2c, wd, w0, xi)
	}
	for i, g := range grads {
		mi := b1*m[i] + (1-b1)*g
		vi := b2*v[i] + (1-b2)*g*g
		m[i] = mi
		v[i] = vi
		if b1c != 1 {
			mi /= b1c
		}
		p := params[i] - lr*mi/(math.Sqrt(vi/b2c)+eps)
		if wd != 0 {
			p -= lr * wd * p
		}
		params[i] = p
		if watch {
			d := p - w0[i]
			sq += d * d
			dot += xi[i] * d
		}
	}
	return sq, dot
}
