// Package sketch implements AMS (Alon–Matias–Szegedy) sketches as used by
// SketchFDA (paper §3.1). An AMS sketch of a vector v ∈ R^d is an l×m real
// matrix computed through 4-wise independent hash functions; it supports
//
//   - an unbiased second-moment (squared L2 norm) estimator M2 with error
//     ε = O(1/√m) at confidence 1−δ, δ = O(exp(−l)), and
//   - linearity: sk(αa + βb) = α·sk(a) + β·sk(b),
//
// which together let K workers estimate ‖mean drift‖² from the mean of
// their individual drift sketches (Theorem 3.1).
//
// A Sketcher carries the shared hash functions; all workers in a cluster
// must use the same Sketcher (same seed) for cross-worker linearity to be
// meaningful. Sketch carries only the l×m counters.
package sketch

import (
	"math/bits"
	"sort"

	"repro/internal/tensor"
)

// mersenne61 is the Mersenne prime 2^61−1 used as the field for polynomial
// hashing; reduction is cheap (shift and add) and 4 coefficients give
// 4-wise independence.
const mersenne61 = (1 << 61) - 1

// polyHash is a degree-3 polynomial hash over GF(2^61−1), 4-wise
// independent by construction.
type polyHash struct {
	a, b, c, d uint64 // coefficients in [0, p)
}

func newPolyHash(rng *tensor.RNG) polyHash {
	draw := func() uint64 { return rng.Uint64() % mersenne61 }
	return polyHash{a: draw(), b: draw(), c: draw(), d: draw()}
}

// mulmod61 multiplies a*b mod 2^61−1 for a, b < 2^61. With the 128-bit
// product a*b = hi·2^64 + lo and 2^64 ≡ 8 (mod 2^61−1), the reduction is
// 8·hi + lo; hi < 2^58 so 8·hi fits a uint64.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return reduce61(reduce61(hi<<3) + reduce61(lo))
}

// reduce61 reduces x modulo 2^61−1 for any uint64 x.
func reduce61(x uint64) uint64 {
	x = (x >> 61) + (x & mersenne61)
	if x >= mersenne61 {
		x -= mersenne61
	}
	return x
}

// eval computes the hash of key as a 61-bit value.
func (h polyHash) eval(key uint64) uint64 {
	k := reduce61(key)
	// Horner: ((a*k + b)*k + c)*k + d.
	v := h.a
	v = reduce61(mulmod61(v, k) + h.b)
	v = reduce61(mulmod61(v, k) + h.c)
	v = reduce61(mulmod61(v, k) + h.d)
	return v
}

// Sketcher holds the shared hash functions defining an (l×m) AMS sketch
// family. It is immutable after construction and safe for concurrent use.
type Sketcher struct {
	l, m   int
	bucket []polyHash // one per row: index → column
	sign   []polyHash // one per row: index → ±1

	// Optional lookup tables built by Precompute for a fixed dimension d:
	// cols[i][j] and signs[i][j] are the column and ±1 sign of coordinate j
	// in row i. They turn SketchVec's inner loop from three modular
	// multiplications per (row, coordinate) into two array loads, which
	// matters because SketchFDA sketches a d-dimensional drift every step.
	cols  [][]int32
	signs [][]int8
}

// NewSketcher builds a Sketcher with l rows (depth) and m columns (width)
// seeded deterministically from seed. The paper's recommended setting is
// l=5, m=250 (ε≈6%, 1−δ≈95%; §3.3).
func NewSketcher(l, m int, seed uint64) *Sketcher {
	if l <= 0 || m <= 0 {
		panic("sketch: non-positive sketch dimensions")
	}
	rng := tensor.NewRNG(seed)
	s := &Sketcher{l: l, m: m}
	s.bucket = make([]polyHash, l)
	s.sign = make([]polyHash, l)
	for i := 0; i < l; i++ {
		s.bucket[i] = newPolyHash(rng)
		s.sign[i] = newPolyHash(rng)
	}
	return s
}

// Sketch is the l×m counter matrix for one vector, stored row-major.
// Sketches from the same Sketcher combine linearly through Data.
type Sketch struct {
	L, M int
	Data []float64
}

// NewSketch returns an all-zero sketch shaped for s.
func (s *Sketcher) NewSketch() *Sketch {
	return &Sketch{L: s.l, M: s.m, Data: make([]float64, s.l*s.m)}
}

// Zero resets all counters.
func (sk *Sketch) Zero() { tensor.Zero(sk.Data) }

// Precompute builds lookup tables covering coordinates [0, d). Calling it
// is optional but strongly recommended before repeatedly sketching vectors
// of a fixed dimension (as SketchFDA does). Precompute is not safe to call
// concurrently with SketchVec.
func (s *Sketcher) Precompute(d int) {
	if d <= 0 {
		panic("sketch: Precompute with non-positive dimension")
	}
	if len(s.cols) == s.l && len(s.cols[0]) >= d {
		return // already covers d
	}
	s.cols = make([][]int32, s.l)
	s.signs = make([][]int8, s.l)
	for i := 0; i < s.l; i++ {
		cs := make([]int32, d)
		ss := make([]int8, d)
		bh, sh := s.bucket[i], s.sign[i]
		for j := 0; j < d; j++ {
			key := uint64(j)
			cs[j] = int32(bh.eval(key) % uint64(s.m))
			if sh.eval(key)&1 == 0 {
				ss[j] = -1
			} else {
				ss[j] = 1
			}
		}
		s.cols[i] = cs
		s.signs[i] = ss
	}
}

// SketchVec computes the sketch of a dense vector v into dst (overwriting
// it). This is the O(l·d) bulk form used every training step by SketchFDA.
func (s *Sketcher) SketchVec(dst *Sketch, v []float64) {
	if dst.L != s.l || dst.M != s.m {
		panic("sketch: SketchVec with foreign sketch shape")
	}
	dst.Zero()
	if len(s.cols) == s.l && len(v) <= len(s.cols[0]) {
		for i := 0; i < s.l; i++ {
			row := dst.Data[i*s.m : (i+1)*s.m]
			cs, ss := s.cols[i], s.signs[i]
			for j, x := range v {
				row[cs[j]] += float64(ss[j]) * x
			}
		}
		return
	}
	for i := 0; i < s.l; i++ {
		row := dst.Data[i*s.m : (i+1)*s.m]
		bh, sh := s.bucket[i], s.sign[i]
		for j, x := range v {
			if x == 0 {
				continue
			}
			key := uint64(j)
			col := int(bh.eval(key) % uint64(s.m))
			if sh.eval(key)&1 == 0 {
				row[col] -= x
			} else {
				row[col] += x
			}
		}
	}
}

// Sketch allocates and returns the sketch of v.
func (s *Sketcher) Sketch(v []float64) *Sketch {
	sk := s.NewSketch()
	s.SketchVec(sk, v)
	return sk
}

// M2 returns the median-of-rows estimate of ‖v‖² for the sketched vector
// (the M2(sk(v)) estimator of §3.1).
func M2(sk *Sketch) float64 {
	return M2Into(sk, make([]float64, sk.L))
}

// M2Into is M2 with a caller-provided scratch slice of length ≥ sk.L, so
// per-step estimators (SketchFDA evaluates M2 every global step) can run
// allocation-free. scratch is clobbered.
func M2Into(sk *Sketch, scratch []float64) float64 {
	rowEst := scratch[:sk.L]
	for i := 0; i < sk.L; i++ {
		row := sk.Data[i*sk.M : (i+1)*sk.M]
		rowEst[i] = tensor.SquaredNorm(row)
	}
	return median(rowEst)
}

// median returns the median of xs, averaging the middle pair for even
// lengths. xs is reordered.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
