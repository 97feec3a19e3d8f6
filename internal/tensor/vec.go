package tensor

import (
	"fmt"
	"math"
)

// checkLen panics when two vectors that must be conformal are not. Length
// mismatches here are always programming errors (model dimension is fixed
// per run), so a panic is preferred over threading errors through hot loops.
// The formatting lives in a separate never-inlined helper so checkLen
// inlines into the //fda:noalloc kernels without contributing the
// Sprintf argument boxing as escape-analysis allocation sites there.
func checkLen(op string, a, b []float64) {
	if len(a) != len(b) {
		lenPanic(op, len(a), len(b))
	}
}

//go:noinline
func lenPanic(op string, la, lb int) {
	panic(fmt.Sprintf("tensor: %s length mismatch %d != %d", op, la, lb))
}

// Zero sets every component of v to 0.
//
//fda:noalloc
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every component of v to c.
//
//fda:noalloc
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// Clone returns a newly allocated copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Add stores a+b into dst. dst may alias a or b.
//
//fda:noalloc
func Add(dst, a, b []float64) {
	checkLen("Add", a, b)
	checkLen("Add", dst, a)
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub stores a-b into dst. dst may alias a or b.
//
//fda:noalloc
func Sub(dst, a, b []float64) {
	checkLen("Sub", a, b)
	checkLen("Sub", dst, a)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Scale multiplies v by c in place.
//
//fda:noalloc
func Scale(v []float64, c float64) {
	if useAVX2 && len(v) >= simdMinLen {
		scaleAVX2(v, c)
		return
	}
	for i := range v {
		v[i] *= c
	}
}

// AXPY computes y += alpha*x in place. The body is 4-way unrolled
// (kernels.go); element updates are independent, so the result is
// bit-identical to the scalar loop. x may be y itself; the two must not
// overlap partially.
//
//fda:noalloc
func AXPY(alpha float64, x, y []float64) {
	checkLen("AXPY", x, y)
	axpyUnrolled(alpha, x, y)
}

// Dot returns the inner product <a, b>, accumulated left to right (4-way
// unrolled into a single accumulator, so the sum order — and therefore
// every result bit — matches the scalar loop).
//
//fda:noalloc
func Dot(a, b []float64) float64 {
	checkLen("Dot", a, b)
	return dotUnrolled(a, b)
}

// SquaredNorm returns ||v||_2^2, accumulated left to right.
//
//fda:noalloc
func SquaredNorm(v []float64) float64 {
	return dotUnrolled(v, v)
}

// Norm returns ||v||_2.
//
//fda:noalloc
func Norm(v []float64) float64 {
	return math.Sqrt(SquaredNorm(v))
}

// Normalize scales v to unit L2 norm in place and returns the original
// norm. A zero vector is left unchanged and 0 is returned.
func Normalize(v []float64) float64 {
	n := Norm(v)
	if n == 0 {
		return 0
	}
	Scale(v, 1/n)
	return n
}

// Mean stores the arithmetic mean of vecs into dst. It panics if vecs is
// empty or lengths differ. dst may alias one of vecs. The association is
// part of the contract (it fixes every bit of a model average): the K
// vectors are folded left to right in argument order, ((v0+v1)+v2)+…,
// and the sum is scaled once by 1/K — never a tree, never K scaled terms.
//
//fda:noalloc
func Mean(dst []float64, vecs ...[]float64) {
	if len(vecs) == 0 {
		panic("tensor: Mean of no vectors") //fda:allow(noalloc, constant-string boxing on the abort path only)
	}
	first := vecs[0]
	checkLen("Mean", dst, first)
	copy(dst, first)
	for _, v := range vecs[1:] {
		Add(dst, dst, v)
	}
	Scale(dst, 1/float64(len(vecs)))
}

// MaxAbs returns the largest absolute component of v, or 0 for an empty
// vector.
//
//fda:noalloc
func MaxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// ArgMax returns the index of the largest component; ties resolve to the
// first maximum. It panics on an empty vector.
//
//fda:noalloc
func ArgMax(v []float64) int {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty vector") //fda:allow(noalloc, constant-string boxing on the abort path only)
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// AllFinite reports whether every component is neither NaN nor Inf.
//
//fda:noalloc
func AllFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
