package core

import (
	"context"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// Allocation regression tests guarding the scratch arenas: after warm-up
// (lazy optimizer state, batch arena, meter keys), a steady-state
// LocalStep plus strategy AfterLocalStep must perform zero heap
// allocations. Θ is set astronomically high so the measured window
// contains no model synchronization — that is the steady state; syncs
// are allowed to touch their (reused, but lazily grown) arenas.

// allocModel is a small but representative CNN: conv, ReLU, pool, dense —
// every layer class on the LocalStep hot path.
func allocModel(rng *tensor.RNG) *nn.Network {
	in := nn.Shape{H: 4, W: 4, C: 1}
	c1 := nn.NewConv2D(in, 3, 3, nn.GlorotUniformInit)
	p1 := nn.NewMaxPool2D(c1.OutShape(), 2)
	return nn.New(rng,
		c1, nn.NewReLU(c1.OutDim()), p1,
		nn.NewDense(p1.OutDim(), 8, nn.GlorotUniformInit),
		nn.NewReLU(8),
		nn.NewDense(8, 4, nn.GlorotUniformInit),
	)
}

// newAllocEnv wires K workers over a tiny synthetic shard, sequential
// (width 1), ready for steady-state stepping.
func newAllocEnv(k int) *Env {
	rng := tensor.NewRNG(7)
	train, _ := data.Synthetic(data.SyntheticConfig{
		Seed: 7, Classes: 4, TrainPer: 16, TestPer: 2,
		Height: 4, Width: 4, Channels: 1,
	})
	workers := make([]*Worker, k)
	d := 0
	for i := range workers {
		net := allocModel(rng.Split())
		d = net.NumParams()
		workers[i] = &Worker{
			ID: i, Net: net, Opt: opt.NewAdam(1e-3)(), Shard: train,
			drift:   make([]float64, net.NumParams()),
			sampler: data.NewSampler(train, rng.Split()),
		}
	}
	_ = d
	env := newEnv(comm.NewCluster(k), workers)
	env.width = 1
	return env
}

// measureSteadyStep warms the arenas, then asserts the fused step
// allocates nothing.
func measureSteadyStep(t *testing.T, name string, env *Env, strat Strategy) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	strat.Init(env)
	step := 0
	body := func() {
		step++
		for _, w := range env.Workers {
			w.LocalStep(8)
		}
		strat.AfterLocalStep(env, step)
	}
	for i := 0; i < 3; i++ {
		body() // warm-up: lazy Adam moments, batch arena, meter keys
	}
	if avg := testing.AllocsPerRun(20, body); avg != 0 {
		t.Fatalf("%s: steady-state step allocates %.1f times, want 0", name, avg)
	}
}

func TestLocalStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	env := newAllocEnv(1)
	w := env.Workers[0]
	for i := 0; i < 3; i++ {
		w.LocalStep(8)
	}
	if avg := testing.AllocsPerRun(50, func() { w.LocalStep(8) }); avg != 0 {
		t.Fatalf("LocalStep allocates %.1f times per call, want 0", avg)
	}
}

func TestLinearFDASteadyStepZeroAllocs(t *testing.T) {
	s := NewLinearFDA(1e18)
	measureSteadyStep(t, "LinearFDA", newAllocEnv(3), s)
}

func TestSketchFDASteadyStepZeroAllocs(t *testing.T) {
	s := NewSketchFDA(1e18)
	measureSteadyStep(t, "SketchFDA", newAllocEnv(3), s)
}

func TestOracleFDASteadyStepZeroAllocs(t *testing.T) {
	s := NewOracleFDA(1e18)
	measureSteadyStep(t, "OracleFDA", newAllocEnv(3), s)
}

// TestAsyncStepZeroAllocs covers asynchronous FDA's steady-state event
// step, sync-free like the strategies above: one pop, a local step, the
// moving worker's state, an estimate and a push.
func TestAsyncStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	train, test := data.Synthetic(data.SyntheticConfig{
		Seed: 7, Classes: 4, TrainPer: 16, TestPer: 2,
		Height: 4, Width: 4, Channels: 1,
	})
	cfg := Config{
		K: 3, BatchSize: 8, Seed: 7,
		Model: allocModel, Optimizer: opt.NewAdam(1e-3),
		Train: train, Test: test,
	}
	for _, inner := range []Strategy{NewLinearFDA(1e18), NewSketchFDA(1e18)} {
		sess, err := NewSession(context.Background(), cfg, NewAsyncFDA(inner))
		if err != nil {
			t.Fatal(err)
		}
		step := 0
		body := func() {
			step++
			sess.stepWorker(step)
		}
		for i := 0; i < 3*cfg.K; i++ {
			body() // warm-up: every worker's Adam moments and batch arena, meter keys
		}
		if avg := testing.AllocsPerRun(20, body); avg != 0 {
			t.Fatalf("%s: steady-state event step allocates %.1f times, want 0", sess.strat.Name(), avg)
		}
	}
}

// TestMomentumStepZeroAllocs covers the SGD-NM update rule used by the
// DenseNet rows (Adam is covered by the step tests above).
func TestMomentumStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	o := opt.NewSGDNesterov(0.05, 0.9, 1e-4)()
	params := make([]float64, 512)
	grads := make([]float64, 512)
	tensor.Normal(tensor.NewRNG(3), params, 0, 1)
	tensor.Normal(tensor.NewRNG(4), grads, 0, 1)
	o.Step(params, grads) // lazy velocity
	if avg := testing.AllocsPerRun(50, func() { o.Step(params, grads) }); avg != 0 {
		t.Fatalf("Momentum.Step allocates %.1f times per call, want 0", avg)
	}
}
