package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/par"
)

// parityStrategies enumerates one constructor per strategy family,
// asynchronous FDA included. Each call must build a fresh strategy (they
// carry per-run state).
func parityStrategies(cfg Config) map[string]func() Strategy {
	return map[string]func() Strategy{
		"SketchFDA":   func() Strategy { return NewSketchFDA(0.1) },
		"LinearFDA":   func() Strategy { return NewLinearFDA(0.1) },
		"OracleFDA":   func() Strategy { return NewOracleFDA(0.1) },
		"Synchronous": func() Strategy { return NewSynchronous() },
		"LocalSGD":    func() Strategy { return NewLocalSGD(7) },
		"FedAvgM":     func() Strategy { return NewFedAvgMFor(cfg) },
		"FedAdam":     func() Strategy { return NewFedAdamFor(cfg) },
		"AsyncFDA":    func() Strategy { return NewAsyncFDA(NewLinearFDA(0.1)) },
	}
}

// TestParallelRunParityAllStrategies is the determinism contract of the
// parallel execution engine: for every strategy, Run with Parallelism 4
// must return a Result deeply equal — histories, byte counts, accuracies,
// every float64 bit — to the sequential run at the same seed, and two
// parallel runs must agree with each other. A third run takes its width
// on every call from par.SeedWidths (1…8), so each step and each scan
// may run at a different width on different goroutines.
func TestParallelRunParityAllStrategies(t *testing.T) {
	base := testConfig(42)
	base.MaxSteps = 45
	base.EvalEvery = 15
	base.RecordTrainAccuracy = true // exercises parallel train-set evaluation

	for name, mk := range parityStrategies(base) {
		t.Run(name, func(t *testing.T) {
			seq := base
			seq.Parallelism = 0
			wide := base
			wide.Parallelism = 4

			want := MustRun(seq, mk())
			got := MustRun(wide, mk())
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("parallel run diverged from sequential:\nseq: %v\npar: %v", want, got)
			}
			again := MustRun(wide, mk())
			if !reflect.DeepEqual(got, again) {
				t.Fatalf("two parallel runs diverged:\n1st: %v\n2nd: %v", got, again)
			}

			defer par.SeedWidths(uint64(len(name)))()
			wide.Parallelism = 8
			seeded := MustRun(wide, mk())
			if !reflect.DeepEqual(want, seeded) || resultBits(want) != resultBits(seeded) {
				t.Fatalf("seeded-width run diverged from sequential:\nseq: %v\ngot: %v", want, seeded)
			}
		})
	}
}

// resultBits digests every float of a Result by its bits, so -0 and 0
// (which reflect.DeepEqual equates) tell apart.
func resultBits(r Result) string {
	h := sha256.New()
	writeAsyncResult(h, "result", r)
	return hex.EncodeToString(h.Sum(nil))
}

// TestParallelRunParityAutoAndOddWidths checks the knob's edge settings:
// AutoParallelism, a width above K, and width 2 must all reproduce the
// sequential trajectory bit-for-bit.
func TestParallelRunParityAutoAndOddWidths(t *testing.T) {
	base := testConfig(7)
	base.MaxSteps = 30
	base.EvalEvery = 10
	want := MustRun(base, NewLinearFDA(0.1))
	for _, p := range []int{AutoParallelism, 2, 16} {
		cfg := base
		cfg.Parallelism = p
		got := MustRun(cfg, NewLinearFDA(0.1))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Parallelism=%d diverged from sequential:\nseq: %v\ngot: %v", p, want, got)
		}
	}
}

// TestParallelRunParityHeterogeneous runs the label-skew partitioner under
// parallelism: shard sizes differ across workers, so the fan-out sees uneven
// per-index work.
func TestParallelRunParityHeterogeneous(t *testing.T) {
	base := testConfig(11)
	base.MaxSteps = 30
	base.EvalEvery = 10
	base.Het = data.NonIIDLabel(0)
	seq := MustRun(base, NewSketchFDA(0.1))
	par := base
	par.Parallelism = 3
	got := MustRun(par, NewSketchFDA(0.1))
	if !reflect.DeepEqual(seq, got) {
		t.Fatalf("heterogeneous run diverged under parallelism:\nseq: %v\npar: %v", seq, got)
	}
}

// stepOnlyOptimizer has the shape of a tracing decorator: it embeds
// opt.Optimizer and overrides Step alone, counting the calls. Every
// other method, Watch included, is the embedded optimizer's.
type stepOnlyOptimizer struct {
	opt.Optimizer
	steps *atomic.Int64
}

func (o *stepOnlyOptimizer) Step(params, grads []float64) {
	o.steps.Add(1)
	o.Optimizer.Step(params, grads)
}

// TestWrappedOptimizerRunsFusedSweep: LinearFDA's state comes out of the
// optimizer's Step, reached through the Optimizer interface, so a
// decorator that overrides only Step still runs the fused sweep inside
// its own Step, and its reports still reach the session's check, with no
// type assertion anywhere. SketchFDA makes its own drift pass and must
// not notice the decorator either. Wrapped and bare runs, synchronous and
// asynchronous, must agree on the Result and the global model's bits, and
// the wrapper must see every local step.
func TestWrappedOptimizerRunsFusedSweep(t *testing.T) {
	base := testConfig(5)
	base.MaxSteps = 40
	base.EvalEvery = 20
	for name, mk := range map[string]func() Strategy{
		"LinearFDA":      func() Strategy { return NewLinearFDA(0.1) },
		"SketchFDA":      func() Strategy { return NewSketchFDA(0.1) },
		"AsyncFDA":       func() Strategy { return NewAsyncFDA(NewLinearFDA(0.1)) },
		"AsyncSketchFDA": func() Strategy { return NewAsyncFDA(NewSketchFDA(0.1)) },
	} {
		t.Run(name, func(t *testing.T) {
			wantRes, wantModel := fabricRun(t, base, mk, nil)
			var steps atomic.Int64
			wrapped := base
			wrapped.Optimizer = func() opt.Optimizer {
				return &stepOnlyOptimizer{Optimizer: base.Optimizer(), steps: &steps}
			}
			gotRes, gotModel := fabricRun(t, wrapped, mk, nil)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("wrapped run diverged:\nwant: %v\ngot:  %v", wantRes, gotRes)
			}
			for i := range wantModel {
				if math.Float64bits(gotModel[i]) != math.Float64bits(wantModel[i]) {
					t.Fatalf("global model[%d] = %v wrapped, %v bare", i, gotModel[i], wantModel[i])
				}
			}
			local := int64(gotRes.Steps * base.K)
			if gotRes.StepsPerWorker != nil {
				local = 0
				for _, n := range gotRes.StepsPerWorker {
					local += int64(n)
				}
			}
			if steps.Load() != local || local == 0 {
				t.Fatalf("wrapper saw %d Step calls, the run took %d local steps", steps.Load(), local)
			}
		})
	}
}
