package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestZeroAndFill(t *testing.T) {
	v := []float64{1, 2, 3}
	Zero(v)
	for i, x := range v {
		if x != 0 {
			t.Fatalf("Zero: v[%d] = %v", i, x)
		}
	}
	Fill(v, 2.5)
	for i, x := range v {
		if x != 2.5 {
			t.Fatalf("Fill: v[%d] = %v", i, x)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	v := []float64{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	dst := make([]float64, 3)
	Add(dst, a, b)
	want := []float64{5, 7, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Add[%d] = %v want %v", i, dst[i], want[i])
		}
	}
	Sub(dst, b, a)
	want = []float64{3, 3, 3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Sub[%d] = %v want %v", i, dst[i], want[i])
		}
	}
	Scale(dst, 2)
	for i := range dst {
		if dst[i] != 6 {
			t.Fatalf("Scale[%d] = %v want 6", i, dst[i])
		}
	}
}

func TestAddAliasing(t *testing.T) {
	a := []float64{1, 2}
	Add(a, a, a) // a = 2a in place
	if a[0] != 2 || a[1] != 4 {
		t.Fatalf("aliased Add got %v", a)
	}
}

func TestAXPY(t *testing.T) {
	x := []float64{1, 1, 1}
	y := []float64{1, 2, 3}
	AXPY(2, x, y)
	want := []float64{3, 4, 5}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("AXPY[%d] = %v want %v", i, y[i], want[i])
		}
	}
}

func TestDotAndNorms(t *testing.T) {
	a := []float64{3, 4}
	if got := Dot(a, a); got != 25 {
		t.Fatalf("Dot = %v want 25", got)
	}
	if got := SquaredNorm(a); got != 25 {
		t.Fatalf("SquaredNorm = %v want 25", got)
	}
	if got := Norm(a); got != 5 {
		t.Fatalf("Norm = %v want 5", got)
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 4}
	n := Normalize(v)
	if n != 5 {
		t.Fatalf("Normalize returned %v want 5", n)
	}
	if !almostEqual(Norm(v), 1, eps) {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := []float64{0, 0}
	if n := Normalize(z); n != 0 {
		t.Fatalf("Normalize(zero) = %v want 0", n)
	}
}

func TestMean(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	c := []float64{5, 6}
	dst := make([]float64, 2)
	Mean(dst, a, b, c)
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("Mean = %v", dst)
	}
}

func TestMeanSingleVectorAliased(t *testing.T) {
	a := []float64{2, 4}
	Mean(a, a)
	if a[0] != 2 || a[1] != 4 {
		t.Fatalf("Mean aliased single = %v", a)
	}
}

func TestArgMaxAndMaxAbs(t *testing.T) {
	v := []float64{-5, 2, 2, 1}
	if got := ArgMax(v); got != 1 {
		t.Fatalf("ArgMax = %d want 1 (first max)", got)
	}
	if got := MaxAbs(v); got != 5 {
		t.Fatalf("MaxAbs = %v want 5", got)
	}
	if got := MaxAbs(nil); got != 0 {
		t.Fatalf("MaxAbs(nil) = %v want 0", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Fatal("finite vector reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("Inf not detected")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Property: Cauchy–Schwarz |<a,b>|² <= |a|²|b|² holds for random vectors.
// This is the inequality underlying LinearFDA's overestimation (Thm 3.2).
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(a0, b0 [8]float64) bool {
		av, bv := shrinkVec(a0[:]), shrinkVec(b0[:])
		lhs := Dot(av, bv)
		return lhs*lhs <= SquaredNorm(av)*SquaredNorm(bv)*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// shrinkVec maps arbitrary quick-generated floats into a bounded range so
// sums cannot overflow to Inf.
func shrinkVec(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Mod(x, 1e6)
		if math.IsNaN(out[i]) {
			out[i] = 0
		}
	}
	return out
}

// Property: Mean is linear, i.e. mean of (a+b) = mean(a) + mean(b) per slot.
func TestMeanLinearityProperty(t *testing.T) {
	f := func(a0, b0 [4]float64, c0, d0 [4]float64) bool {
		a, b := shrinkVec(a0[:]), shrinkVec(b0[:])
		c, d := shrinkVec(c0[:]), shrinkVec(d0[:])
		sum1 := make([]float64, 4)
		Add(sum1, a[:], c[:])
		sum2 := make([]float64, 4)
		Add(sum2, b[:], d[:])
		meanOfSums := make([]float64, 4)
		Mean(meanOfSums, sum1, sum2)

		m1 := make([]float64, 4)
		Mean(m1, a[:], b[:])
		m2 := make([]float64, 4)
		Mean(m2, c[:], d[:])
		sumOfMeans := make([]float64, 4)
		Add(sumOfMeans, m1, m2)

		for i := range meanOfSums {
			if !almostEqual(meanOfSums[i], sumOfMeans[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
