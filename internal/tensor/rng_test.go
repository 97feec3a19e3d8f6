package tensor

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws across different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	child := r.Split()
	// Parent and child should produce different streams.
	if r.Uint64() == child.Uint64() {
		t.Fatal("split stream coincides with parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestFloat64MeanAndVariance(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Float64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Fatalf("uniform variance = %v", variance)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(17)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	r := NewRNG(23)
	w := make([]float64, 5000)
	GlorotUniform(r, w, 100, 50)
	a := math.Sqrt(6.0 / 150.0)
	for _, x := range w {
		if x < -a || x > a {
			t.Fatalf("Glorot sample %v outside ±%v", x, a)
		}
	}
	// Should actually use most of the range.
	if MaxAbs(w) < 0.9*a {
		t.Fatalf("Glorot samples suspiciously concentrated: max %v of bound %v", MaxAbs(w), a)
	}
}

func TestHeNormalStd(t *testing.T) {
	r := NewRNG(29)
	w := make([]float64, 100000)
	HeNormal(r, w, 50)
	want := math.Sqrt(2.0 / 50.0)
	var sumSq float64
	for _, x := range w {
		sumSq += x * x
	}
	got := math.Sqrt(sumSq / float64(len(w)))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("He std = %v want ≈ %v", got, want)
	}
}

func TestNormalFill(t *testing.T) {
	r := NewRNG(31)
	w := make([]float64, 1000)
	Normal(r, w, 10, 0.1)
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum/1000-10) > 0.05 {
		t.Fatalf("Normal mean = %v want ≈ 10", sum/1000)
	}
}
