package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// This file pins every kernel that has an assembly body to a scalar
// oracle written here, in the test, with plain indexed loops — never to
// another production kernel, which may itself dispatch to assembly. The
// exported kernels are checked in every build (so -tags purego checks the
// Go loops against the same oracles); kernels_amd64_test.go adds the raw
// assembly routines, which must also be right below the dispatch
// thresholds because each finishes its own tail.

// simdKernel is one routine under test. run and oracle receive vecs
// vectors of equal length and the scalars, mutate the vectors in place
// and return any scalar results.
type simdKernel struct {
	name    string
	vecs    int
	scalars int
	run     func(v [][]float64, c []float64) []float64
	oracle  func(v [][]float64, c []float64) []float64
	// alias lists operand pairs {i, j} that may be the very same slice.
	alias [][2]int
	// exact compares NaN payloads too: the kernel only moves bits.
	exact bool
}

// simdKernels is the matrix; kernels_amd64_test.go appends the raw
// assembly routines to it through the same constructors.
var simdKernels = slices.Concat([]simdKernel{
	axpyKernel("AXPY", AXPY),
	axpy4Kernel("AXPY4", AXPY4),
	dot4Kernel("Dot4", Dot4),
	dot4x2Kernel("Dot4x2", Dot4x2),
	scaleKernel("Scale", Scale),
	scaleAddKernel("ScaleAdd", ScaleAdd),
	reluKernel("ReLU", ReLU),
	reluGradKernel("ReLUGrad", ReLUGrad),
	{
		name: "DriftSums", vecs: 3, alias: [][2]int{{1, 2}},
		run: func(v [][]float64, _ []float64) []float64 {
			sq, dot := DriftSums(v[0], v[1], v[2])
			return []float64{sq, dot}
		},
		oracle: func(v [][]float64, _ []float64) []float64 { return oracleDrift(v[0], v[1], v[2]) },
	},
	dot4x8Kernel("MatVec4x8", func(dst []float64, stride int, w, x []float64, n int) {
		// Four rows, eight samples: one full tile where the assembly is
		// in use, four Dot4x2 pairs elsewhere.
		out := make([]float64, 32)
		MatVec(out, MatFrom(4, n, w), x)
		for s := 0; s < 8; s++ {
			copy(dst[s*stride:s*stride+4], out[4*s:4*s+4])
		}
	}),
}, adamKernels("AdamStep", AdamStep), leKernels("", EncodeLE, DecodeLE, AddScaleLE), convPlanKernels())

// One constructor per kernel signature: operand counts, permitted
// aliasing and the oracle are stated once, whichever implementation f is.

func axpyKernel(name string, f func(alpha float64, x, y []float64)) simdKernel {
	return simdKernel{
		name: name, vecs: 2, scalars: 1, alias: [][2]int{{0, 1}}, oracle: oracleAXPY,
		run: func(v [][]float64, c []float64) []float64 { f(c[0], v[0], v[1]); return nil },
	}
}

func axpy4Kernel(name string, f func(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)) simdKernel {
	return simdKernel{
		name: name, vecs: 5, scalars: 4, alias: [][2]int{{0, 4}, {3, 4}}, oracle: oracleAXPY4,
		run: func(v [][]float64, c []float64) []float64 {
			f(c[0], c[1], c[2], c[3], v[0], v[1], v[2], v[3], v[4])
			return nil
		},
	}
}

func dot4Kernel(name string, f func(a, x0, x1, x2, x3 []float64) (s0, s1, s2, s3 float64)) simdKernel {
	return simdKernel{
		name: name, vecs: 5, alias: [][2]int{{0, 1}}, oracle: oracleDot4,
		run: func(v [][]float64, _ []float64) []float64 {
			s0, s1, s2, s3 := f(v[0], v[1], v[2], v[3], v[4])
			return []float64{s0, s1, s2, s3}
		},
	}
}

func dot4x2Kernel(name string, f func(a, b, x0, x1, x2, x3 []float64) (s0, s1, s2, s3, t0, t1, t2, t3 float64)) simdKernel {
	return simdKernel{
		name: name, vecs: 6, alias: [][2]int{{0, 1}, {1, 5}}, oracle: oracleDot4x2,
		run: func(v [][]float64, _ []float64) []float64 {
			s0, s1, s2, s3, t0, t1, t2, t3 := f(v[0], v[1], v[2], v[3], v[4], v[5])
			return []float64{s0, s1, s2, s3, t0, t1, t2, t3}
		},
	}
}

// adamFunc is AdamStep's signature, shared by its assembly body.
type adamFunc func(params, grads, m, v []float64, b1, b2, lr, eps, b1c, b2c, wd float64, w0, xi []float64) (sq, dot float64)

// adamKernels puts f in the matrix once per weight-decay mode — wd zero
// (no suffix) or non-zero (/decoupled) — with the watch off and on, and
// with b1c drawn or exactly 1 (/b1c=1), where the division by it is
// skipped. All seven scalars are drawn — b1, b2, lr, eps, b1c, b2c, wd —
// so specials reach each of them; an entry overrides only what its name
// fixes. A decay that is off keeps the sign of its drawn value, so both
// ±0 meet the kernel's zero test; one that is on keeps its drawn value
// unless that is ±0, which becomes 1e-2.
// Vectors: params, grads, m, v and, watched, w0 and xi, which may be one
// slice. Unwatched, both sums must be +0.
func adamKernels(name string, f adamFunc) []simdKernel {
	var ks []simdKernel
	for _, decay := range []bool{false, true} {
		for _, watch := range []bool{false, true} {
			for _, unit := range []bool{false, true} {
				k := simdKernel{name: name, vecs: 4, scalars: 7}
				if decay {
					k.name += "/decoupled"
				}
				if watch {
					k.name += "/watched"
					k.vecs, k.alias = 6, [][2]int{{4, 5}}
				}
				if unit {
					k.name += "/b1c=1"
				}
				scalars := func(c []float64) []float64 {
					out := slices.Clone(c)
					if unit {
						out[4] = 1
					}
					switch wd := &out[6]; {
					case !decay:
						*wd = math.Copysign(0, *wd)
					case *wd == 0:
						*wd = 1e-2
					}
					return out
				}
				k.run = func(v [][]float64, c []float64) []float64 {
					a := scalars(c)
					var w0, xi []float64
					if watch {
						w0, xi = v[4], v[5]
					}
					sq, dot := f(v[0], v[1], v[2], v[3], a[0], a[1], a[2], a[3], a[4], a[5], a[6], w0, xi)
					return []float64{sq, dot}
				}
				k.oracle = func(v [][]float64, c []float64) []float64 {
					oracleAdam(v[:4], scalars(c))
					if !watch {
						return []float64{0, 0}
					}
					return oracleDrift(v[0], v[4], v[5])
				}
				ks = append(ks, k)
			}
		}
	}
	return ks
}

func scaleKernel(name string, f func(v []float64, c float64)) simdKernel {
	return simdKernel{
		name: name, vecs: 1, scalars: 1,
		run: func(v [][]float64, c []float64) []float64 { f(v[0], c[0]); return nil },
		oracle: func(v [][]float64, c []float64) []float64 {
			for i := range v[0] {
				v[0][i] *= c[0]
			}
			return nil
		},
	}
}

func scaleAddKernel(name string, f func(v []float64, c float64, x []float64)) simdKernel {
	return simdKernel{
		name: name, vecs: 2, scalars: 1, alias: [][2]int{{0, 1}},
		run: func(v [][]float64, c []float64) []float64 { f(v[0], c[0], v[1]); return nil },
		oracle: func(v [][]float64, c []float64) []float64 {
			for i := range v[0] {
				v[0][i] = c[0]*v[0][i] + v[1][i]
			}
			return nil
		},
	}
}

// The ReLU oracles are the branching definitions, not the mask trick the
// kernels use: a sign bit (−0 and negative NaNs included) rectifies to
// +0, and the gradient passes wherever the cached output has any bit set.

func reluKernel(name string, f func(dst, x []float64)) simdKernel {
	return simdKernel{
		name: name, vecs: 2, alias: [][2]int{{0, 1}},
		run: func(v [][]float64, _ []float64) []float64 { f(v[0], v[1]); return nil },
		oracle: func(v [][]float64, _ []float64) []float64 {
			for i, x := range v[1] {
				if math.Signbit(x) {
					x = 0
				}
				v[0][i] = x
			}
			return nil
		},
	}
}

func reluGradKernel(name string, f func(dst, g, out []float64)) simdKernel {
	return simdKernel{
		name: name, vecs: 3, alias: [][2]int{{0, 1}, {0, 2}, {1, 2}},
		run: func(v [][]float64, _ []float64) []float64 { f(v[0], v[1], v[2]); return nil },
		oracle: func(v [][]float64, _ []float64) []float64 {
			for i, o := range v[2] {
				g := v[1][i]
				if math.Float64bits(o) == 0 {
					g = 0
				}
				v[0][i] = g
			}
			return nil
		},
	}
}

// dot4x8Kernel feeds MatVec's register tile: vectors 0–3 are the rows,
// 4–11 the samples, packed back to back as the tile reads them, with the
// eight 4-element outputs 5 apart so a wrong stride shows.
func dot4x8Kernel(name string, f func(dst []float64, stride int, w, x []float64, n int)) simdKernel {
	return simdKernel{
		name: name, vecs: 12, oracle: oracleDot4x8,
		run: func(v [][]float64, _ []float64) []float64 {
			n := len(v[0])
			// Odd element offsets: the packed operands are 8-byte aligned
			// only, like everything else the assembly is handed.
			w, x := make([]float64, 1, 1+4*n), make([]float64, 3, 3+8*n)
			for _, r := range v[:4] {
				w = append(w, r...)
			}
			for _, r := range v[4:] {
				x = append(x, r...)
			}
			const stride = 5
			dst := make([]float64, 7*stride+4)
			f(dst, stride, w[1:], x[3:], n)
			out := make([]float64, 0, 32)
			for s := 0; s < 8; s++ {
				out = append(out, dst[s*stride:s*stride+4]...)
			}
			return out
		},
	}
}

// leKernels puts the little-endian byte kernels in the matrix once for
// every byte offset mod 8 of their byte view: nothing aligns the byte
// slices the fabric hands them — a received payload or a caller's own —
// so a view may start at any offset. A kernel's name is its Go name, suffix, "+" and the offset.
// A nil enc has no entries (the assembly has no encoder).
func leKernels(suffix string, enc func(dst []byte, v []float64), dec func(dst []float64, b []byte),
	fold func(d []float64, b []byte, s float64)) []simdKernel {
	var ks []simdKernel
	for shift := 0; shift < 8; shift++ {
		if enc != nil {
			ks = append(ks, encodeLEKernel(fmt.Sprintf("EncodeLE%s+%d", suffix, shift), enc, shift))
		}
		ks = append(ks,
			decodeLEKernel(fmt.Sprintf("DecodeLE%s+%d", suffix, shift), dec, shift),
			addScaleLEKernel(fmt.Sprintf("AddScaleLE%s+%d", suffix, shift), fold, shift))
	}
	return ks
}

// leGuard fills the bytes around a byte view.
const leGuard = 0xa5

// leView is the byte view at offset shift of buf, whose other bytes
// (shift before the view, 8 after) hold leGuard.
type leView struct {
	buf   []byte
	shift int
}

// leBytes encodes v into a fresh view at shift with the test's own loop.
func leBytes(v []float64, shift int) leView {
	l := leView{make([]byte, shift+8*len(v)+8), shift}
	for i := range l.buf {
		l.buf[i] = leGuard
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(l.bytes()[8*i:], math.Float64bits(x))
	}
	return l
}

func (l leView) bytes() []byte { return l.buf[l.shift : len(l.buf)-8] }

// guardsHit counts the bytes around the view that no longer hold
// leGuard: a kernel that writes outside its view shows here.
func (l leView) guardsHit() []float64 {
	hit := 0
	for i, c := range l.buf {
		if (i < l.shift || i >= len(l.buf)-8) && c != leGuard {
			hit++
		}
	}
	return []float64{float64(hit)}
}

// leDecode is the test's own decoder: v[i] from b[8i:8i+8].
func leDecode(v []float64, b []byte) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// leOracleOK is the oracles' scalar result: no guard byte hit.
var leOracleOK = []float64{0}

// encodeLEKernel: vector 0 is what the byte view held before (and, read
// back, what it holds after), vector 1 the source.
func encodeLEKernel(name string, f func(dst []byte, v []float64), shift int) simdKernel {
	return simdKernel{
		name: name, vecs: 2, exact: true,
		run: func(v [][]float64, _ []float64) []float64 {
			l := leBytes(v[0], shift)
			f(l.bytes(), v[1])
			leDecode(v[0], l.bytes())
			return l.guardsHit()
		},
		oracle: func(v [][]float64, _ []float64) []float64 { copy(v[0], v[1]); return leOracleOK },
	}
}

// decodeLEKernel: vector 0 is the destination, vector 1 the values the
// byte view encodes.
func decodeLEKernel(name string, f func(dst []float64, b []byte), shift int) simdKernel {
	return simdKernel{
		name: name, vecs: 2, exact: true,
		run: func(v [][]float64, _ []float64) []float64 {
			l := leBytes(v[1], shift)
			f(v[0], l.bytes())
			return l.guardsHit()
		},
		oracle: func(v [][]float64, _ []float64) []float64 { copy(v[0], v[1]); return leOracleOK },
	}
}

// addScaleLEKernel: vector 0 is d, vector 1 the values the byte view
// encodes, the scalar s.
func addScaleLEKernel(name string, f func(d []float64, b []byte, s float64), shift int) simdKernel {
	return simdKernel{
		name: name, vecs: 2, scalars: 1,
		run: func(v [][]float64, c []float64) []float64 {
			l := leBytes(v[1], shift)
			f(v[0], l.bytes(), c[0])
			return l.guardsHit()
		},
		oracle: func(v [][]float64, c []float64) []float64 {
			for i := range v[0] {
				v[0][i] = (v[0][i] + v[1][i]) * c[0]
			}
			return leOracleOK
		},
	}
}

// TestViewLEIsTheEncoding pins ViewLE where the build has a view: its
// bytes are EncodeLE's, NaN payloads included, and they are v's own
// memory, so a write through the view shows in v.
func TestViewLEIsTheEncoding(t *testing.T) {
	v := []float64{1.5, -2, math.Copysign(0, -1), math.Inf(-1), math.Float64frombits(0x7ff4000000000abc), 5e-324}
	b := ViewLE(v)
	if b == nil {
		t.Skip("this build has no memory view; callers encode")
	}
	want := make([]byte, 8*len(v))
	EncodeLE(want, v)
	if !slices.Equal(b, want) {
		t.Fatalf("ViewLE = %x, EncodeLE wrote %x", b, want)
	}
	b[8] ^= 1
	if got := math.Float64bits(v[1]); got != math.Float64bits(-2)^1 {
		t.Fatalf("a write through the view left v[1] at %#x", got)
	}
}

func oracleDot4x8(v [][]float64, _ []float64) []float64 {
	out := make([]float64, 0, 32)
	for s := 0; s < 8; s++ {
		for q := 0; q < 4; q++ {
			out = append(out, scalarDot(v[4+s], v[q]))
		}
	}
	return out
}

// oracleDrift is Sub, then SquaredNorm, then Dot, each its own scalar
// loop: the watched Adam sweep must return the bits of the passes over
// the updated weights it replaces.
func oracleDrift(p, w0, xi []float64) []float64 {
	u := make([]float64, len(p))
	for i := range u {
		u[i] = p[i] - w0[i]
	}
	return []float64{scalarDot(u, u), scalarDot(xi, u)}
}

func oracleAXPY(v [][]float64, c []float64) []float64 {
	x, y := v[0], v[1]
	for i := range y {
		y[i] += c[0] * x[i]
	}
	return nil
}

func oracleAXPY4(v [][]float64, c []float64) []float64 {
	y := v[4]
	for i := range y {
		s := y[i] + c[0]*v[0][i]
		s += c[1] * v[1][i]
		s += c[2] * v[2][i]
		s += c[3] * v[3][i]
		y[i] = s
	}
	return nil
}

func oracleDot4(v [][]float64, _ []float64) []float64 {
	out := make([]float64, 4)
	for q := range out {
		out[q] = scalarDot(v[0], v[1+q])
	}
	return out
}

func oracleDot4x2(v [][]float64, _ []float64) []float64 {
	out := make([]float64, 8)
	for q := 0; q < 4; q++ {
		out[q] = scalarDot(v[0], v[2+q])
		out[4+q] = scalarDot(v[1], v[2+q])
	}
	return out
}

// oracleAdam is the element loop opt.Adam.Step ran before it became a
// kernel, copied so a change to AdamStep's Go body cannot move its own
// oracle. It always divides by b1c, so at b1c = 1 it checks that the
// kernel's skipped division moves no bit. Scalars: b1, b2, lr, eps, b1c,
// b2c, wd.
func oracleAdam(v [][]float64, c []float64) []float64 {
	params, grads, m, vv := v[0], v[1], v[2], v[3]
	b1, b2, lr, eps, b1c, b2c, wd := c[0], c[1], c[2], c[3], c[4], c[5], c[6]
	for i, g := range grads {
		mi := b1*m[i] + (1-b1)*g
		vi := b2*vv[i] + (1-b2)*g*g
		m[i] = mi
		vv[i] = vi
		params[i] -= lr * (mi / b1c) / (math.Sqrt(vi/b2c) + eps)
		if wd != 0 {
			params[i] -= lr * wd * params[i]
		}
	}
	return nil
}

// sameBits is the comparison of this file: IEEE bit patterns, so −0 ≠ +0
// and a result is Inf exactly when the oracle's is. Any NaN matches any
// NaN: which payload survives x+y when both are NaN depends on operand
// order, which the Go compiler is free to choose for the scalar code too,
// so payloads were never part of the contract (DESIGN.md §7) — except
// for the kernels that only move bits, which a simdKernel marks exact.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// specials are the values rounding and exception handling trip over.
// The NaNs carry distinct payloads, one of them signalling, for the
// kernels that must move them unchanged.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8_0000_dead_beef), math.Float64frombits(0x7ff0_0000_0000_0001),
	5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, 1, -1,
}

// checkKernel runs k and its oracle on identical inputs and compares
// every vector element and scalar result. fill(j) yields the j-th input
// value. Vector q starts (off+q) mod 4 elements into its own allocation:
// 8-byte aligned as Go guarantees, 32-byte aligned at most by accident.
// aliasPair ≥ 0 makes the two operands of k.alias[aliasPair] one slice.
func checkKernel(t *testing.T, k simdKernel, n, off, aliasPair int, fill func(j int) float64) {
	t.Helper()
	j := 0
	next := func() float64 { j++; return fill(j - 1) }
	c := make([]float64, k.scalars)
	for i := range c {
		c[i] = next()
	}
	got, want := make([][]float64, k.vecs), make([][]float64, k.vecs)
	for q := range got {
		o := (off + q) % 4
		got[q] = make([]float64, o+n+3)[o : o+n]
		for i := range got[q] {
			got[q][i] = next()
		}
		want[q] = Clone(got[q])
	}
	if aliasPair >= 0 {
		p := k.alias[aliasPair]
		got[p[1]], want[p[1]] = got[p[0]], want[p[0]]
	}
	gs := k.run(got, c)
	ws := k.oracle(want, c)
	same := sameBits
	if k.exact {
		same = func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	}
	for q := range got {
		for i := range got[q] {
			if !same(got[q][i], want[q][i]) {
				t.Fatalf("%s n=%d off=%d alias=%d: vec %d[%d] = %v (%#x), scalar loop %v (%#x)", k.name, n, off,
					aliasPair, q, i, got[q][i], math.Float64bits(got[q][i]), want[q][i], math.Float64bits(want[q][i]))
			}
		}
	}
	for i := range ws {
		if !same(gs[i], ws[i]) {
			t.Fatalf("%s n=%d off=%d alias=%d: result %d = %v (%#x), scalar loop %v (%#x)", k.name, n, off,
				aliasPair, i, gs[i], math.Float64bits(gs[i]), ws[i], math.Float64bits(ws[i]))
		}
	}
}

// simdLens covers every main-loop / 4-wide tail / 1-wide tail
// combination of the 8- and 4-wide bodies, then long vectors.
func simdLens() []int {
	lens := make([]int, 0, 70)
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	return append(lens, 257, 1000)
}

// TestSIMDKernelsMatchScalarLoops is the exact-equality matrix: every
// kernel × every length × misaligned starts × permitted aliasing ×
// ordinary and special values.
func TestSIMDKernelsMatchScalarLoops(t *testing.T) {
	for _, k := range simdKernels {
		t.Run(k.name, func(t *testing.T) {
			rng := NewRNG(31)
			ordinary := func(int) float64 {
				return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7))-3)
			}
			// One value in three special: specials meet each other and
			// ordinary values in every operand position.
			special := func(j int) float64 {
				if rng.Intn(3) == 0 {
					return specials[rng.Intn(len(specials))]
				}
				return ordinary(j)
			}
			for _, n := range simdLens() {
				for off := 0; off < 4; off++ {
					for a := -1; a < len(k.alias); a++ {
						checkKernel(t, k, n, off, a, ordinary)
						checkKernel(t, k, n, off, a, special)
					}
				}
			}
		})
	}
}

// FuzzKernelsMatchScalar lets the fuzzer choose the kernel, the length,
// the misalignment, the aliasing and the raw bits of the leading inputs
// (the rest come from a seeded stream).
func FuzzKernelsMatchScalar(f *testing.F) {
	f.Add(kernelIndex("AXPY"), uint16(9), uint8(1), uint8(0), uint64(1), []byte{})
	f.Add(kernelIndex("AdamStep/decoupled"), uint16(13), uint8(1), uint8(1), uint64(5), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add(kernelIndex("ScaleAdd"), uint16(67), uint8(3), uint8(2), uint64(6), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	// The convolution passes: the length picks the geometry (3: a 6×6
	// plane, 11: 12×12, 13: nine input planes and a 1×1 kernel) and the
	// leading inputs, cycled through every operand, are +Inf, NaN and −0.
	f.Add(kernelIndex("ConvPlan.Forward"), uint16(3), uint8(0), uint8(0), uint64(11),
		[]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(kernelIndex("ConvPlan.WeightGrad"), uint16(13), uint8(1), uint8(0), uint64(12), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(kernelIndex("ConvPlan.InputGrad"), uint16(3), uint8(2), uint8(0), uint64(13),
		[]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add(kernelIndex("ConvPlan.InputGrad"), uint16(11), uint8(3), uint8(0), uint64(14), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	// b1c = 1, watched: the skipped division next to the drift sums, and
	// the first params element a subnormal.
	f.Add(kernelIndex("AdamStep/decoupled/watched/b1c=1"), uint16(37), uint8(3), uint8(1), uint64(9),
		[]byte{0, 0, 0, 0, 0, 0, 0xee, 0x3f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0x50, 0x3f,
			0, 0, 0, 0, 0, 0, 0x80, 0x3e, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f,
			0, 0, 0, 0, 0, 0, 0x80, 0x3f, 1, 0, 0, 0, 0, 0, 0, 0})
	// A drawn b1c of +0, b2c subnormal and a decay of −0 that must count
	// as off, watched.
	f.Add(kernelIndex("AdamStep/watched"), uint16(19), uint8(2), uint8(1), uint64(10),
		[]byte{0, 0, 0, 0, 0, 0, 0xee, 0x3f, 0, 0, 0, 0, 0, 0xf0, 0xef, 0x3f, 0, 0, 0, 0, 0, 0, 0x50, 0x3f,
			0, 0, 0, 0, 0, 0, 0x80, 0x3e, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, which uint8, n uint16, off, alias uint8, seed uint64, raw []byte) {
		k := simdKernels[int(which)%len(simdKernels)]
		rng := NewRNG(seed)
		fill := func(j int) float64 {
			if 8*j+8 <= len(raw) {
				var bits uint64
				for b := 0; b < 8; b++ {
					bits |= uint64(raw[8*j+b]) << (8 * b)
				}
				return math.Float64frombits(bits)
			}
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7))-3)
		}
		checkKernel(t, k, int(n)%300, int(off)%4, int(alias)%(len(k.alias)+1)-1, fill)
	})
}

// kernelIndex is the fuzz target's kernel selector for the named kernel.
func kernelIndex(name string) uint8 {
	i := slices.IndexFunc(simdKernels, func(k simdKernel) bool { return k.name == name })
	if i < 0 || i > math.MaxUint8 {
		panic("tensor: no fuzzable kernel " + name)
	}
	return uint8(i)
}

// TestMeanFoldsInArgumentOrderThenScalesOnce pins Mean's association:
// ((v0+v1)+v2)+… in argument order, one multiplication by 1/K at the end.
// Neither a pairwise tree nor a per-term scaling gives these bits.
func TestMeanFoldsInArgumentOrderThenScalesOnce(t *testing.T) {
	rng := NewRNG(51)
	const n, k = 37, 5
	vecs := make([][]float64, k)
	for i := range vecs {
		vecs[i] = randVec(rng, n)
	}
	got := make([]float64, n)
	Mean(got, vecs...)
	inv := 1 / float64(k)
	for i := range got {
		s := vecs[0][i]
		for _, v := range vecs[1:] {
			s += v[i]
		}
		if want := s * inv; got[i] != want {
			t.Fatalf("Mean[%d] = %v, left fold scaled once = %v", i, got[i], want)
		}
	}
}

var (
	asmFMA    = regexp.MustCompile(`\bVFN?M(ADD|SUB)`)
	asmText   = regexp.MustCompile(`^TEXT\s+·?(\w+)`)
	asmDefine = regexp.MustCompile(`^#define\s+(\w+)`)
	asmCall   = regexp.MustCompile(`^(\w+)\s*(\(|$)`)
	asmVec    = regexp.MustCompile(`\b[XYZ]\d+\b`)
	asmX      = regexp.MustCompile(`\bX\d+\b`)
	asmY      = regexp.MustCompile(`\bY\d+\b`)
)

// asmStmt is one instruction of a .s file, at the line that wrote it.
type asmStmt struct {
	line int
	text string
}

// asmMacro is a #define: its parameter names and its instructions.
type asmMacro struct {
	params []string
	body   []asmStmt
}

// asmArgs splits a macro's argument list at its top-level commas.
func asmArgs(list string) []string {
	var args []string
	depth, start := 0, 0
	for i, c := range list {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				args, start = append(args, strings.TrimSpace(list[start:i])), i+1
			}
		}
	}
	return append(args, strings.TrimSpace(list[start:]))
}

// asmBodies splits an assembly source into its TEXT bodies, one
// instruction per statement, with every macro invocation replaced by the
// macro's instructions, arguments substituted — the code each routine
// actually runs.
func asmBodies(src string) (names []string, bodies [][]asmStmt) {
	macros := map[string]*asmMacro{}
	var def *asmMacro
	var expand func(s asmStmt, out []asmStmt) []asmStmt
	expand = func(s asmStmt, out []asmStmt) []asmStmt {
		m := asmCall.FindStringSubmatch(s.text)
		if m == nil || macros[m[1]] == nil {
			return append(out, s)
		}
		mac := macros[m[1]]
		var args []string
		if m[2] == "(" {
			args = asmArgs(strings.TrimSuffix(strings.TrimSpace(s.text[len(m[0]):]), ")"))
		}
		for _, ms := range mac.body {
			text := ms.text
			for p, name := range mac.params {
				if p < len(args) {
					text = regexp.MustCompile(`\b`+name+`\b`).ReplaceAllLiteralString(text, args[p])
				}
			}
			out = expand(asmStmt{s.line, text}, out)
		}
		return out
	}
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		cont := strings.HasSuffix(line, "\\")
		line = strings.TrimSpace(strings.TrimSuffix(line, "\\"))
		if m := asmDefine.FindStringSubmatch(line); m != nil {
			def = &asmMacro{}
			rest := line[len(m[0]):]
			if strings.HasPrefix(rest, "(") {
				params, after, _ := strings.Cut(rest[1:], ")")
				def.params, rest = asmArgs(params), after
			}
			macros[m[1]], line = def, rest
		}
		for _, text := range strings.Split(line, ";") {
			s := asmStmt{ln + 1, strings.TrimSpace(text)}
			switch {
			case s.text == "":
			case def != nil:
				def.body = append(def.body, s)
			case asmText.MatchString(s.text):
				names = append(names, asmText.FindStringSubmatch(s.text)[1])
				bodies = append(bodies, nil)
			case len(bodies) > 0:
				bodies[len(bodies)-1] = expand(s, bodies[len(bodies)-1])
			}
		}
		if !cont {
			def = nil
		}
	}
	return names, bodies
}

// TestAssemblyHasNoFMAAndClearsUpperLanes reads the package's .s files
// as text, so it holds on every platform: no fused multiply-add (it
// rounds once where the Go code rounds twice — adding one "for speed"
// silently breaks bit-identity with the portable build); every RET of a
// routine that touches vector registers is preceded by VZEROUPPER; and a
// routine that touches a Y register names X registers only in VEX
// instructions — a legacy SSE one (MOVQ AX, X0 where VMOVQ was meant)
// between 256-bit instructions pays the SSE/AVX transition penalty on
// every pass.
func TestAssemblyHasNoFMAAndClearsUpperLanes(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		names, bodies := asmBodies(string(src))
		for b, body := range bodies {
			fn := names[b]
			vector, wide := false, false
			for _, s := range body {
				wide = wide || asmY.MatchString(s.text)
			}
			for i, s := range body {
				if asmFMA.MatchString(s.text) {
					t.Errorf("%s:%d: fused multiply-add %q in %s", file, s.line, s.text, fn)
				}
				if wide && asmX.MatchString(s.text) && !strings.HasPrefix(s.text, "V") {
					t.Errorf("%s:%d: legacy SSE %q in %s, which uses Y registers", file, s.line, s.text, fn)
				}
				vector = vector || asmVec.MatchString(s.text)
				if s.text == "RET" && vector && (i == 0 || body[i-1].text != "VZEROUPPER") {
					t.Errorf("%s:%d: RET in %s not preceded by VZEROUPPER", file, s.line, fn)
				}
			}
		}
	}
}
