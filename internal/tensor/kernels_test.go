package tensor

import (
	"math"
	"testing"
)

// randVec fills deterministic pseudo-random test vectors across a range of
// magnitudes so reduction-order differences would show up as bit changes.
func randVec(rng *RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7))-3)
	}
	return v
}

// kernelLens exercises every unroll remainder (0..3) and the empty vector.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 64, 257, 1000}

// scalarDot is the pre-kernel reference: strict left-to-right products.
func scalarDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestDotMatchesScalarReferenceExactly(t *testing.T) {
	rng := NewRNG(11)
	for _, n := range kernelLens {
		a, b := randVec(rng, n), randVec(rng, n)
		if got, want := Dot(a, b), scalarDot(a, b); got != want {
			t.Fatalf("n=%d: Dot=%v scalar=%v (order changed)", n, got, want)
		}
	}
}

func TestSquaredNormMatchesScalarReferenceExactly(t *testing.T) {
	rng := NewRNG(12)
	for _, n := range kernelLens {
		v := randVec(rng, n)
		var want float64
		for _, x := range v {
			want += x * x
		}
		if got := SquaredNorm(v); got != want {
			t.Fatalf("n=%d: SquaredNorm=%v scalar=%v", n, got, want)
		}
	}
}

func TestAXPYMatchesScalarReferenceExactly(t *testing.T) {
	rng := NewRNG(13)
	for _, n := range kernelLens {
		x, y := randVec(rng, n), randVec(rng, n)
		want := Clone(y)
		for i := range want {
			want[i] += 0.37 * x[i]
		}
		AXPY(0.37, x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d i=%d: AXPY=%v scalar=%v", n, i, y[i], want[i])
			}
		}
	}
}

func TestSubThenSquaredNormFusesExactly(t *testing.T) {
	rng := NewRNG(14)
	for _, n := range kernelLens {
		a, b := randVec(rng, n), randVec(rng, n)
		ref := make([]float64, n)
		Sub(ref, a, b)
		want := scalarDot(ref, ref)
		dst := make([]float64, n)
		got := SubThenSquaredNorm(dst, a, b)
		if got != want {
			t.Fatalf("n=%d: fused norm %v != reference %v", n, got, want)
		}
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("n=%d i=%d: fused diff %v != %v", n, i, dst[i], ref[i])
			}
		}
	}
}

func TestSubThenSquaredNormAliasing(t *testing.T) {
	a := []float64{5, 4, 3, 2, 1}
	b := []float64{1, 1, 1, 1, 1}
	want := SubThenSquaredNorm(make([]float64, 5), a, b)
	got := SubThenSquaredNorm(a, a, b) // dst aliases a
	if got != want {
		t.Fatalf("aliased norm %v != %v", got, want)
	}
	for i, x := range []float64{4, 3, 2, 1, 0} {
		if a[i] != x {
			t.Fatalf("aliased dst[%d] = %v, want %v", i, a[i], x)
		}
	}
}

func TestScaleAdd(t *testing.T) {
	rng := NewRNG(16)
	for _, n := range kernelLens {
		v, x := randVec(rng, n), randVec(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = 0.9*v[i] + x[i]
		}
		ScaleAdd(v, 0.9, x)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("n=%d i=%d: ScaleAdd=%v want %v", n, i, v[i], want[i])
			}
		}
	}
}

func TestSumMatchesScalarReferenceExactly(t *testing.T) {
	rng := NewRNG(17)
	for _, n := range kernelLens {
		v := randVec(rng, n)
		var want float64
		for _, x := range v {
			want += x
		}
		if got := Sum(v); got != want {
			t.Fatalf("n=%d: Sum=%v scalar=%v", n, got, want)
		}
	}
}

func TestAccumulateMatchesScalarReferenceExactly(t *testing.T) {
	rng := NewRNG(18)
	for _, n := range kernelLens {
		dst, src := randVec(rng, n), randVec(rng, n)
		want := Clone(dst)
		for i := range want {
			want[i] += src[i]
		}
		Accumulate(dst, src)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d i=%d: Accumulate=%v want %v", n, i, dst[i], want[i])
			}
		}
	}
}

// TestAXPY4MatchesSequentialAXPYsExactly pins the quad-tap kernel's
// per-element chaining: it must equal four sequential AXPY sweeps bit for
// bit, which is what carries the conv forward's bit-identity argument.
// The sweeps are the scalar loop of kernels_simd_test.go, not AXPY itself:
// a production kernel may dispatch to assembly and is no oracle.
func TestAXPY4MatchesSequentialAXPYsExactly(t *testing.T) {
	rng := NewRNG(21)
	alphas := [4]float64{0.7, -1.3, 0.02, 5.5}
	for _, n := range kernelLens {
		xs := make([][]float64, 4)
		for i := range xs {
			xs[i] = randVec(rng, n)
		}
		y := randVec(rng, n)
		want := Clone(y)
		for q := 0; q < 4; q++ {
			oracleAXPY([][]float64{xs[q], want}, alphas[q:])
		}
		AXPY4(alphas[0], alphas[1], alphas[2], alphas[3], xs[0], xs[1], xs[2], xs[3], y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d i=%d: AXPY4=%v sequential=%v", n, i, y[i], want[i])
			}
		}
	}
}

func TestDot4MatchesSeparateDotsExactly(t *testing.T) {
	rng := NewRNG(23)
	for _, n := range kernelLens {
		a := randVec(rng, n)
		xs := make([][]float64, 4)
		for i := range xs {
			xs[i] = randVec(rng, n)
		}
		s0, s1, s2, s3 := Dot4(a, xs[0], xs[1], xs[2], xs[3])
		got := [4]float64{s0, s1, s2, s3}
		for q := 0; q < 4; q++ {
			if want := scalarDot(a, xs[q]); got[q] != want {
				t.Fatalf("n=%d q=%d: Dot4=%v Dot=%v", n, q, got[q], want)
			}
		}
	}
}

func TestDot4x2MatchesSeparateDotsExactly(t *testing.T) {
	rng := NewRNG(24)
	for _, n := range kernelLens {
		a, b := randVec(rng, n), randVec(rng, n)
		xs := make([][]float64, 4)
		for i := range xs {
			xs[i] = randVec(rng, n)
		}
		s0, s1, s2, s3, t0, t1, t2, t3 := Dot4x2(a, b, xs[0], xs[1], xs[2], xs[3])
		gotS := [4]float64{s0, s1, s2, s3}
		gotT := [4]float64{t0, t1, t2, t3}
		for q := 0; q < 4; q++ {
			if want := scalarDot(a, xs[q]); gotS[q] != want {
				t.Fatalf("n=%d q=%d: Dot4x2 a-row=%v Dot=%v", n, q, gotS[q], want)
			}
			if want := scalarDot(b, xs[q]); gotT[q] != want {
				t.Fatalf("n=%d q=%d: Dot4x2 b-row=%v Dot=%v", n, q, gotT[q], want)
			}
		}
	}
}

// TestBlockedMatMulMatchesNaiveExactly pins the blocked MatMul to the
// naive i-k-j triple loop bit for bit, including shapes that straddle the
// tile boundary and the zero-skip path.
func TestBlockedMatMulMatchesNaiveExactly(t *testing.T) {
	rng := NewRNG(19)
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {7, 5, 9},
		{3, 8, matMulTileJ - 1}, {3, 8, matMulTileJ}, {3, 8, matMulTileJ + 5},
		{4, 2, 2*matMulTileJ + 3},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := &Mat{Rows: m, Cols: k, Data: randVec(rng, m*k)}
		b := &Mat{Rows: k, Cols: n, Data: randVec(rng, k*n)}
		a.Data[0] = 0 // exercise the zero-skip branch
		want := NewMat(m, n)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				av := a.At(i, kk)
				if av == 0 {
					continue
				}
				for j := 0; j < n; j++ {
					want.Data[i*n+j] += av * b.At(kk, j)
				}
			}
		}
		got := NewMat(m, n)
		MatMul(got, a, b)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: blocked[%d]=%v naive=%v", sh, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestAdamStepChecksWatchLengths: a watched AdamStep refuses a w0 or xi
// shorter than params before the assembly, which reads them unchecked,
// can run past their end.
func TestAdamStepChecksWatchLengths(t *testing.T) {
	const n = 16
	full, short := make([]float64, n), make([]float64, n-1)
	for _, c := range []struct {
		name   string
		w0, xi []float64
	}{{"w0", short, full}, {"xi", full, short}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AdamStep accepted a %d-element %s for %d parameters", n-1, c.name, n)
				}
			}()
			p, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			AdamStep(p, g, m, v, 0.9, 0.999, 1e-3, 1e-7, 1, 1, 0, c.w0, c.xi)
		}()
	}
}

// BenchmarkAdamStep times one AdamW update sweep over the 94 436
// parameters of the repository benchmark's dist workloads: plain, watched
// (LinearFDA's drift sums in the same sweep) and watched once 1 − β1ᵗ
// has rounded to 1, where the division by it is skipped. It is the opt
// layer's probe; `-cpu 1` gives the single-core number.
func BenchmarkAdamStep(b *testing.B) {
	const n = 94436
	rng := NewRNG(7)
	params, grads, m, v := randVec(rng, n), randVec(rng, n), randVec(rng, n), make([]float64, n)
	w0, xi := randVec(rng, n), randVec(rng, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	for _, c := range []struct {
		name  string
		watch bool
		b1c   float64
	}{{"plain", false, 1 - math.Pow(0.9, 5)}, {"watched", true, 1 - math.Pow(0.9, 5)}, {"watched/b1c=1", true, 1}} {
		b.Run(c.name, func(b *testing.B) {
			var ww0, wxi []float64
			if c.watch {
				ww0, wxi = w0, xi
			}
			for range b.N {
				AdamStep(params, grads, m, v, 0.9, 0.999, 1e-3, 1e-7, c.b1c, 1-math.Pow(0.999, 5), 1e-4, ww0, wxi)
			}
		})
	}
}
