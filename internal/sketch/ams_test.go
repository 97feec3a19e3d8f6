package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestReduce61(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0},
		{1, 1},
		{mersenne61, 0},
		{mersenne61 + 1, 1},
		{2 * mersenne61, 0},
		{^uint64(0), (^uint64(0)) % mersenne61},
	}
	for _, c := range cases {
		if got := reduce61(c.in); got != c.want {
			t.Fatalf("reduce61(%d) = %d want %d", c.in, got, c.want)
		}
	}
}

func TestMulMod61MatchesBigArithmetic(t *testing.T) {
	rng := tensor.NewRNG(1)
	for i := 0; i < 1000; i++ {
		a := rng.Uint64() % mersenne61
		b := rng.Uint64() % mersenne61
		got := mulmod61(a, b)
		// Reference via math/big-free 128-bit simulation: compute with
		// smaller operands where direct multiplication is exact.
		al, bl := a%(1<<30), b%(1<<30)
		if a < 1<<30 && b < 1<<30 {
			if want := (al * bl) % mersenne61; got != want {
				t.Fatalf("mulmod61(%d,%d) = %d want %d", a, b, got, want)
			}
		}
		if got >= mersenne61 {
			t.Fatalf("mulmod61 result %d not reduced", got)
		}
	}
	// Exhaustive small-value check against direct %.
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 50; b++ {
			if got, want := mulmod61(a, b), (a*b)%mersenne61; got != want {
				t.Fatalf("mulmod61(%d,%d) = %d want %d", a, b, got, want)
			}
		}
	}
}

func TestMulMod61Identities(t *testing.T) {
	rng := tensor.NewRNG(2)
	for i := 0; i < 200; i++ {
		a := rng.Uint64() % mersenne61
		if mulmod61(a, 1) != a {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		if mulmod61(a, 0) != 0 {
			t.Fatalf("a*0 != 0 for a=%d", a)
		}
		b := rng.Uint64() % mersenne61
		if mulmod61(a, b) != mulmod61(b, a) {
			t.Fatalf("commutativity failed for %d,%d", a, b)
		}
	}
}

func TestNewSketcherValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSketcher(0, 10, 1)
}

func TestSketchDeterministicAcrossInstances(t *testing.T) {
	v := make([]float64, 100)
	rng := tensor.NewRNG(3)
	tensor.Normal(rng, v, 0, 1)
	a := NewSketcher(5, 50, 42).Sketch(v)
	b := NewSketcher(5, 50, 42).Sketch(v)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed sketchers disagree")
		}
	}
	c := NewSketcher(5, 50, 43).Sketch(v)
	diff := false
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical sketches")
	}
}

func TestPrecomputeMatchesHashPath(t *testing.T) {
	v := make([]float64, 200)
	rng := tensor.NewRNG(5)
	tensor.Normal(rng, v, 0, 1)
	slow := NewSketcher(4, 64, 99)
	want := slow.Sketch(v)
	fast := NewSketcher(4, 64, 99)
	fast.Precompute(len(v))
	got := fast.Sketch(v)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("precomputed path diverges at %d", i)
		}
	}
}

// Property (Theorem 3.1 prerequisite): sketches are linear,
// sk(αa + βb) = α·sk(a) + β·sk(b).
func TestLinearityProperty(t *testing.T) {
	s := NewSketcher(3, 32, 11)
	f := func(a0, b0 [16]float64, alphaRaw, betaRaw float64) bool {
		a := shrink(a0[:])
		b := shrink(b0[:])
		alpha := math.Mod(alphaRaw, 10)
		beta := math.Mod(betaRaw, 10)
		if math.IsNaN(alpha) {
			alpha = 0
		}
		if math.IsNaN(beta) {
			beta = 0
		}
		comb := make([]float64, len(a))
		for i := range comb {
			comb[i] = alpha*a[i] + beta*b[i]
		}
		left := s.Sketch(comb)
		right := s.Sketch(a)
		tensor.Scale(right.Data, alpha)
		tensor.AXPY(beta, s.Sketch(b).Data, right.Data)
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-6*(1+math.Abs(left.Data[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func shrink(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Mod(x, 100)
		if math.IsNaN(out[i]) {
			out[i] = 0
		}
	}
	return out
}

// M2 should estimate the squared norm within the ε bound for the paper's
// recommended dimensions (l=5, m=250 ⇒ ε≈6%) on the vast majority of
// random vectors.
func TestM2Accuracy(t *testing.T) {
	s := NewSketcher(5, 250, 17)
	rng := tensor.NewRNG(6)
	const trials = 60
	const dim = 2000
	bad := 0
	for trial := 0; trial < trials; trial++ {
		v := make([]float64, dim)
		tensor.Normal(rng, v, 0, 1)
		truth := tensor.SquaredNorm(v)
		est := M2(s.Sketch(v))
		if math.Abs(est-truth)/truth > 0.15 {
			bad++
		}
	}
	if bad > trials/10 {
		t.Fatalf("M2 outside 15%% on %d/%d trials", bad, trials)
	}
}

func TestM2ZeroVector(t *testing.T) {
	s := NewSketcher(5, 50, 1)
	if got := M2(s.Sketch(make([]float64, 64))); got != 0 {
		t.Fatalf("M2 of zero vector = %v", got)
	}
}

// Cross-worker aggregation: mean of per-worker sketches equals the sketch
// of the mean drift, so M2(mean sketch) estimates ‖ū‖² — the core of
// SketchFDA's AllReduce-based estimation.
func TestMeanOfSketchesEstimatesMeanNorm(t *testing.T) {
	const K = 8
	const dim = 1500
	s := NewSketcher(5, 250, 23)
	rng := tensor.NewRNG(9)
	drifts := make([][]float64, K)
	mean := make([]float64, dim)
	agg := s.NewSketch()
	for k := 0; k < K; k++ {
		drifts[k] = make([]float64, dim)
		tensor.Normal(rng, drifts[k], 0.1, 1)
		tensor.AXPY(1, drifts[k], mean)
		tensor.AXPY(1.0/K, s.Sketch(drifts[k]).Data, agg.Data)
	}
	tensor.Scale(mean, 1.0/K)
	truth := tensor.SquaredNorm(mean)
	est := M2(agg)
	if math.Abs(est-truth)/truth > 0.2 {
		t.Fatalf("aggregated M2 = %v truth = %v", est, truth)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("empty median = %v", got)
	}
}

func TestSketchZero(t *testing.T) {
	sk := NewSketcher(5, 250, 1).NewSketch()
	sk.Data[0] = 1
	sk.Zero()
	if sk.Data[0] != 0 {
		t.Fatal("Zero failed")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	foreign := NewSketcher(3, 8, 1).NewSketch()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSketcher(2, 8, 1).SketchVec(foreign, make([]float64, 4))
}

// Buckets should spread roughly uniformly over columns.
func TestBucketUniformity(t *testing.T) {
	s := NewSketcher(1, 16, 31)
	counts := make([]int, 16)
	const n = 16000
	for j := 0; j < n; j++ {
		counts[int(s.bucket[0].eval(uint64(j))%16)]++
	}
	for c, got := range counts {
		if got < n/16/2 || got > n/16*2 {
			t.Fatalf("column %d count %d far from uniform %d", c, got, n/16)
		}
	}
}

// Signs should be balanced.
func TestSignBalance(t *testing.T) {
	s := NewSketcher(1, 16, 37)
	pos := 0
	const n = 20000
	for j := 0; j < n; j++ {
		if s.sign[0].eval(uint64(j))&1 == 1 {
			pos++
		}
	}
	if pos < n*45/100 || pos > n*55/100 {
		t.Fatalf("sign balance %d/%d", pos, n)
	}
}

func BenchmarkSketchVecPrecomputed(b *testing.B) {
	s := NewSketcher(5, 250, 1)
	const d = 10000
	s.Precompute(d)
	v := make([]float64, d)
	tensor.Normal(tensor.NewRNG(1), v, 0, 1)
	dst := s.NewSketch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SketchVec(dst, v)
	}
}
