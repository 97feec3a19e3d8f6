package opt

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// quadGrad writes the gradient of f(x) = 0.5‖x − target‖² into g.
func quadGrad(g, x, target []float64) {
	for i := range x {
		g[i] = x[i] - target[i]
	}
}

// minimizeQuadratic runs an optimizer on the quadratic and returns the
// final distance to the optimum.
func minimizeQuadratic(o Optimizer, steps int) float64 {
	target := []float64{3, -2, 0.5, 7}
	x := []float64{0, 0, 0, 0}
	g := make([]float64, len(x))
	for s := 0; s < steps; s++ {
		quadGrad(g, x, target)
		o.Step(x, g)
	}
	d := make([]float64, len(x))
	tensor.Sub(d, x, target)
	return tensor.Norm(d)
}

func TestAllOptimizersMinimizeQuadratic(t *testing.T) {
	cases := []struct {
		name  string
		f     Factory
		steps int
		tol   float64
	}{
		{"sgd", func() Optimizer { return &Momentum{LR: 0.1} }, 300, 1e-6},
		{"momentum", func() Optimizer { return &Momentum{LR: 0.05, Mu: 0.9} }, 400, 1e-6},
		{"nesterov", NewSGDNesterov(0.05, 0.9, 0), 400, 1e-6},
		{"adam", NewAdam(0.3), 600, 1e-3},
		{"adamw", NewAdamW(0.3, 0), 600, 1e-3},
	}
	for _, c := range cases {
		if d := minimizeQuadratic(c.f(), c.steps); d > c.tol {
			t.Errorf("%s ended %v from optimum", c.name, d)
		}
	}
}

// Momentum at µ = 0 is plain SGD: the velocity is the gradient. FedAvg's
// unit-rate server in the core tests relies on it.
func TestSGDSingleStep(t *testing.T) {
	o := &Momentum{LR: 0.5}
	x := []float64{1, 2}
	o.Step(x, []float64{2, -4})
	if x[0] != 0 || x[1] != 4 {
		t.Fatalf("SGD step got %v", x)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	o := &Momentum{LR: 0.1, WeightDecay: 0.5}
	x := []float64{2}
	o.Step(x, []float64{0})
	// g_eff = 0 + 0.5*2 = 1 ⇒ x = 2 − 0.1 = 1.9.
	if math.Abs(x[0]-1.9) > 1e-12 {
		t.Fatalf("decayed x = %v", x[0])
	}
}

func TestMomentumAccumulates(t *testing.T) {
	o := &Momentum{LR: 1, Mu: 0.5}
	x := []float64{0}
	o.Step(x, []float64{1}) // v=1, x=-1
	o.Step(x, []float64{1}) // v=1.5, x=-2.5
	if math.Abs(x[0]+2.5) > 1e-12 {
		t.Fatalf("momentum x = %v", x[0])
	}
}

func TestNesterovDiffersFromClassical(t *testing.T) {
	classical := &Momentum{LR: 0.1, Mu: 0.9}
	nesterov := &Momentum{LR: 0.1, Mu: 0.9, Nesterov: true}
	xc := []float64{1}
	xn := []float64{1}
	g := []float64{1}
	classical.Step(xc, g)
	nesterov.Step(xn, g)
	classical.Step(xc, g)
	nesterov.Step(xn, g)
	if xc[0] == xn[0] {
		t.Fatal("Nesterov trajectory identical to classical momentum")
	}
}

func TestAdamFirstStepIsSignedLR(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ≈ LR
	// regardless of gradient scale.
	o := &Adam{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-12}
	x := []float64{0, 0}
	o.Step(x, []float64{1e-4, -1e4})
	if math.Abs(x[0]+0.01) > 1e-6 || math.Abs(x[1]-0.01) > 1e-6 {
		t.Fatalf("first Adam step %v, want ≈ (−0.01, +0.01)", x)
	}
}

func TestAdamWDecaysWithoutGradient(t *testing.T) {
	o := &Adam{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0.1}
	x := []float64{1}
	o.Step(x, []float64{0})
	// Zero gradient: only decoupled decay applies: x *= (1 − lr·wd).
	if math.Abs(x[0]-0.99) > 1e-12 {
		t.Fatalf("AdamW decayed to %v want 0.99", x[0])
	}
}

func TestResetClearsState(t *testing.T) {
	o := &Momentum{LR: 0.1, Mu: 0.9}
	x := []float64{0}
	o.Step(x, []float64{1})
	o.Reset()
	x2 := []float64{0}
	o.Step(x2, []float64{1})
	// After reset the first step must equal a fresh optimizer's first step.
	if x2[0] != -0.1 {
		t.Fatalf("post-reset step %v want -0.1", x2[0])
	}

	a := &Adam{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	y := []float64{0}
	a.Step(y, []float64{1})
	first := y[0]
	a.Reset()
	y2 := []float64{0}
	a.Step(y2, []float64{1})
	if y2[0] != first {
		t.Fatalf("Adam post-reset step %v want %v", y2[0], first)
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Factory{
		"SGD-M":  func() Optimizer { return &Momentum{LR: 0.1, Mu: 0.9} },
		"SGD-NM": NewSGDNesterov(0.1, 0.9, 0),
		"Adam":   NewAdam(0.1),
		"AdamW":  NewAdamW(0.1, 0.01),
	}
	for want, f := range cases {
		if got := f().Name(); got != want {
			t.Errorf("Name = %q want %q", got, want)
		}
	}
}

func TestFactoriesProduceIndependentState(t *testing.T) {
	f := NewSGDNesterov(0.1, 0.9, 0)
	a, b := f(), f()
	x := []float64{0}
	a.Step(x, []float64{1})
	first := x[0]
	a.Step(x, []float64{1})
	// b must behave as fresh.
	y := []float64{0}
	b.Step(y, []float64{1})
	if y[0] != first {
		t.Fatalf("second factory instance shares state: %v, fresh %v", y[0], first)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Momentum{LR: 0.1}).Step([]float64{1, 2}, []float64{1})
}

// TestAdamStepMatchesScalarLoopExactly pins Adam.Step — bias corrections
// and the tensor.AdamStep kernel behind it, assembly included — to the
// element loop Step ran before the kernel existed: 400 consecutive
// updates of a 1003-element vector (a vector main loop plus a
// three-element tail) for Adam and AdamW, every parameter and both
// moments compared with == after every update.
// From step 356 on 1 − β1ᵗ rounds to 1 and the kernel skips its division,
// which the loop here still performs.
func TestAdamStepMatchesScalarLoopExactly(t *testing.T) {
	const n, steps = 1003, 400
	if 1-math.Pow(0.9, 355) == 1 || 1-math.Pow(0.9, 356) != 1 {
		t.Fatal("1 − 0.9ᵗ no longer first rounds to 1 at t = 356")
	}
	for _, o := range []*Adam{
		NewAdam(1e-3)().(*Adam),
		NewAdamW(1e-3, 5e-2)().(*Adam),
	} {
		rng := tensor.NewRNG(77)
		params := make([]float64, n)
		tensor.Normal(rng, params, 0, 1)
		wantP := tensor.Clone(params)
		wantM, wantV := make([]float64, n), make([]float64, n)
		g := make([]float64, n)
		for step := 1; step <= steps; step++ {
			tensor.Normal(rng, g, 0, 0.1)
			o.Step(params, g)

			b1c := 1 - math.Pow(o.Beta1, float64(step))
			b2c := 1 - math.Pow(o.Beta2, float64(step))
			for i, gi := range g {
				mi := o.Beta1*wantM[i] + (1-o.Beta1)*gi
				vi := o.Beta2*wantV[i] + (1-o.Beta2)*gi*gi
				wantM[i], wantV[i] = mi, vi
				wantP[i] -= o.LR * (mi / b1c) / (math.Sqrt(vi/b2c) + o.Eps)
				if o.WeightDecay != 0 {
					wantP[i] -= o.LR * o.WeightDecay * wantP[i]
				}
			}
			vecs, _ := o.StateSnapshot()
			for i := range params {
				if params[i] != wantP[i] || vecs[0][i] != wantM[i] || vecs[1][i] != wantV[i] {
					t.Fatalf("%s wd=%v step %d element %d: (p, m, v) = (%v, %v, %v), scalar loop (%v, %v, %v)",
						o.Name(), o.WeightDecay, step, i, params[i], vecs[0][i], vecs[1][i], wantP[i], wantM[i], wantV[i])
				}
			}
		}
	}
}

// TestWatchReportsDriftOfUpdatedParams: every optimizer's watched Step
// writes ‖p − w0‖² and ⟨ξ, p − w0⟩ of the updated p, summed left to right
// as a scalar loop sums them, counts the report, reads w0 through its
// pointer at each Step (the caller swaps the slice between steps) and
// stops writing and counting once the watch is removed.
func TestWatchReportsDriftOfUpdatedParams(t *testing.T) {
	const n = 1003
	for _, o := range []Optimizer{
		&Momentum{LR: 0.1},
		&Momentum{LR: 0.1, Mu: 0.9},
		&Momentum{LR: 0.1, Mu: 0.9, WeightDecay: 1e-2},
		NewSGDNesterov(0.1, 0.9, 1e-2)(),
		NewAdam(1e-3)(),
		NewAdamW(1e-3, 5e-2)(),
	} {
		rng := tensor.NewRNG(78)
		params, g, xi := make([]float64, n), make([]float64, n), make([]float64, n)
		tensor.Normal(rng, params, 0, 1)
		tensor.Normal(rng, xi, 0, 1)
		arenas := [2][]float64{tensor.Clone(params), make([]float64, n)}
		tensor.Normal(rng, arenas[1], 0, 1)
		w0 := arenas[0]
		out := make([]float64, 2)
		reports := 0
		o.Watch(&w0, xi, out, &reports)
		for step := 1; step <= 4; step++ {
			w0 = arenas[step%2]
			tensor.Normal(rng, g, 0, 0.1)
			o.Step(params, g)
			var sq, dot float64
			for i := range params {
				d := params[i] - w0[i]
				sq += d * d
				dot += xi[i] * d
			}
			if math.Float64bits(out[0]) != math.Float64bits(sq) || math.Float64bits(out[1]) != math.Float64bits(dot) {
				t.Fatalf("%s step %d: watch reported (%v, %v), scalar loop (%v, %v)", o.Name(), step, out[0], out[1], sq, dot)
			}
			if reports != step {
				t.Fatalf("%s step %d: watch counted %d reports", o.Name(), step, reports)
			}
		}
		o.Watch(nil, nil, nil, nil)
		out[0], out[1] = -1, -1
		o.Step(params, g)
		if out[0] != -1 || out[1] != -1 || reports != 4 {
			t.Fatalf("%s wrote %v (count %d) after its watch was removed", o.Name(), out, reports)
		}
	}
}
