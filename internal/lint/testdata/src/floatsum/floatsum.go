// Fixture for the floatsum analyzer, type-checked as
// repro/internal/core: a deterministic package that is not
// internal/tensor, so raw float reductions must go through the fused
// kernels.
package floatsum

// sum is the historical violation shape (pre-PR3
// comm.AllReduceScalars): a naive left-fold over a float slice whose
// accumulation order an "optimization" could silently change.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x // want "raw float accumulation s \+= "
	}
	return s
}

// dot flags the indexed product shape too.
func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i] // want "raw float accumulation s \+= "
	}
	return s
}

// scaled flags element times plain float operand.
func scaled(xs []float64, w float64) float64 {
	var s float64
	for _, x := range xs {
		s += w * x // want "raw float accumulation s \+= "
	}
	return s
}

// blockSum is legal: accumulating the results of kernel calls across
// blocks is fine — block order is pinned by the slice iteration, and
// each call's inner order is pinned by the kernel.
func blockSum(blocks [][]float64) float64 {
	var s float64
	for _, b := range blocks {
		s += kernel(b)
	}
	return s
}

func kernel(v []float64) float64 { return float64(len(v)) }

// perElement is legal: the accumulator is declared inside the
// innermost loop body, so it resets every iteration — no
// cross-iteration reduction exists.
func perElement(xs []float64) {
	for i := range xs {
		d := 1.0
		d += xs[i]
		xs[i] = d
	}
}

// intSum is legal: integer addition is associative.
func intSum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// window shows the exemption grammar for reductions no kernel covers,
// such as a pooling window over strided taps.
func window(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		//fda:allow(floatsum, fixture: strided taps no fused kernel replaces)
		s += x
	}
	return s
}
