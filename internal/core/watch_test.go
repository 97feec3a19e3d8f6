package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/opt"
	"repro/internal/tensor"
)

// TestDriftNormStateMatchesSeparatePass: the ‖u‖² slot of LinearFDA
// (from the optimizer's watch) and SketchFDA (from its own fused pass)
// must carry the bits of a separate SubThenSquaredNorm pass over the
// worker's parameters and W0 at every step, under every local optimizer
// family, and across synchronizations, which move W0 to the other arena. The pinned
// digests run Adam only, so this is what pins the SGD family's path.
func TestDriftNormStateMatchesSeparatePass(t *testing.T) {
	optimizers := map[string]opt.Factory{
		// Momentum at µ = 0 is plain SGD; µ > 0 is FedAvgM's server rule
		"SGD":   func() opt.Optimizer { return &opt.Momentum{LR: 0.05} },
		"SGD-M": func() opt.Optimizer { return &opt.Momentum{LR: 0.05, Mu: 0.9} },
		// the DenseNet rows' optimizer, weight decay included
		"SGD-NM": opt.NewSGDNesterov(0.05, 0.9, 1e-4),
		"Adam":   opt.NewAdam(1e-3),
		"AdamW":  opt.NewAdamW(1e-3, 1e-2),
	}
	// Each case returns the strategy and its ‖u‖² slot of worker i.
	type slotFn func(i int) float64
	for optName, factory := range optimizers {
		for _, mk := range []func() (Strategy, slotFn){
			func() (Strategy, slotFn) {
				s := NewLinearFDA(1e18)
				return s, func(i int) float64 { return s.states[i][0] }
			},
			func() (Strategy, slotFn) {
				s := NewSketchFDA(1e18)
				return s, func(i int) float64 { return s.states[i][0] }
			},
		} {
			strat, slot := mk()
			t.Run(strat.Name()+"/"+optName, func(t *testing.T) {
				env := newAllocEnv(3)
				for _, w := range env.Workers {
					w.Opt = factory()
				}
				strat.Init(env)
				scratch := make([]float64, env.D)
				want := make([]float64, len(env.Workers))
				for step := 1; step <= 12; step++ {
					for i, w := range env.Workers {
						w.LocalStep(8)
						if err := w.checkReport(); err != nil {
							t.Fatal(err)
						}
						want[i] = tensor.SubThenSquaredNorm(scratch, w.Net.Params(), env.W0)
					}
					strat.AfterLocalStep(env, step)
					for i := range env.Workers {
						if got := slot(i); math.Float64bits(got) != math.Float64bits(want[i]) {
							t.Fatalf("step %d worker %d: ‖u‖² slot %v, separate pass %v", step, i, got, want[i])
						}
					}
					if step%4 == 0 {
						env.SyncModels()
					}
				}
				if env.SyncCount < 3 {
					t.Fatalf("%d synchronizations, want the run to cross at least 3", env.SyncCount)
				}
			})
		}
	}
}

// deafSGD is an optimizer written against the bare interface: it embeds
// nothing, and its Watch does nothing, so it never reports a drift.
type deafSGD struct{}

func (deafSGD) Step(params, grads []float64)                 { tensor.AXPY(-0.05, grads, params) }
func (deafSGD) Reset()                                       {}
func (deafSGD) Name() string                                 { return "deafSGD" }
func (deafSGD) Watch(*[]float64, []float64, []float64, *int) {}

// TestSilentOptimizerFailsWatchingRun: LinearFDA reads its state
// nowhere but the optimizer's watch, so an optimizer that ignores the
// watch must fail the run at its first step with a typed error naming the
// optimizer and the worker, not leave the state at zero and never
// synchronize. Strategies that watch nothing (Synchronous, and SketchFDA,
// which makes its own drift pass) still run.
func TestSilentOptimizerFailsWatchingRun(t *testing.T) {
	cfg := testConfig(3)
	cfg.MaxSteps = 20
	cfg.EvalEvery = 10
	cfg.Optimizer = func() opt.Optimizer { return deafSGD{} }
	for _, strat := range []Strategy{NewLinearFDA(0.1), NewAsyncFDA(NewLinearFDA(0.1))} {
		sess, err := NewSession(context.Background(), cfg, strat)
		if err != nil {
			t.Fatal(err)
		}
		var done DoneEvent
		sess.Subscribe(func(e Event) {
			if d, ok := e.(DoneEvent); ok {
				done = d
			}
		})
		more, err := sess.Step()
		var silent *SilentOptimizerError
		if more || !errors.As(err, &silent) {
			t.Fatalf("%s: first step returned (%v, %v), want a *SilentOptimizerError", strat.Name(), more, err)
		}
		if silent.Optimizer != "deafSGD" || silent.Worker != 0 {
			t.Fatalf("%s: error names optimizer %q of worker %d, want deafSGD of worker 0", strat.Name(), silent.Optimizer, silent.Worker)
		}
		if !sess.Done() || done.Err != err.Error() {
			t.Fatalf("%s: session not failed through its done event (done %v, event error %q)", strat.Name(), sess.Done(), done.Err)
		}
		if _, again := sess.Step(); again != err {
			t.Fatalf("%s: a failed session stepped on: %v", strat.Name(), again)
		}
	}
	for _, strat := range []Strategy{NewSynchronous(), NewSketchFDA(0.1)} {
		res, err := Run(cfg, strat)
		if err != nil || res.Steps != cfg.MaxSteps || res.SyncCount == 0 {
			t.Fatalf("%s with an unwatched optimizer: %d steps, %d syncs, error %v", strat.Name(), res.Steps, res.SyncCount, err)
		}
	}
}
