package core

import (
	"reflect"
	"testing"

	"repro/internal/compress"
	"repro/internal/data"
)

// parityStrategies enumerates one constructor per strategy family,
// related work and asynchronous FDA included. Each call must build a fresh strategy (they
// carry per-run state).
func parityStrategies(cfg Config) map[string]func() Strategy {
	return map[string]func() Strategy{
		"SketchFDA":     func() Strategy { return NewSketchFDA(0.1) },
		"LinearFDA":     func() Strategy { return NewLinearFDA(0.1) },
		"OracleFDA":     func() Strategy { return NewOracleFDA(0.1) },
		"Synchronous":   func() Strategy { return NewSynchronous() },
		"LocalSGD":      func() Strategy { return NewLocalSGD(7) },
		"FedAvg":        func() Strategy { return NewFedAvgFor(cfg, 1) },
		"FedAvgM":       func() Strategy { return NewFedAvgMFor(cfg, 1) },
		"FedAdam":       func() Strategy { return NewFedAdamFor(cfg, 1) },
		"IncreasingTau": func() Strategy { return NewIncreasingTauLocalSGD(2, 2) },
		"DecreasingTau": func() Strategy { return NewDecreasingTauLocalSGD(8, 1) },
		"PostLocalSGD":  func() Strategy { return NewPostLocalSGD(10, 5) },
		"LAG":           func() Strategy { return NewLAG(5, 0.5) },
		"AdaptiveTheta": func() Strategy { return NewAdaptiveTheta(NewLinearFDA(0.1), 5e4) },
		"AsyncFDA":      func() Strategy { return NewAsyncFDA(NewLinearFDA(0.1)) },
	}
}

// TestParallelRunParityAllStrategies is the determinism contract of the
// parallel execution engine: for every strategy, Run with Parallelism 4
// must return a Result deeply equal — histories, byte counts, accuracies,
// every float64 bit — to the sequential run at the same seed, and two
// parallel runs must agree with each other.
func TestParallelRunParityAllStrategies(t *testing.T) {
	base := testConfig(42)
	base.MaxSteps = 45
	base.EvalEvery = 15
	base.RecordTrainAccuracy = true // exercises parallel train-set evaluation

	for name, mk := range parityStrategies(base) {
		t.Run(name, func(t *testing.T) {
			seq := base
			seq.Parallelism = 0
			par := base
			par.Parallelism = 4

			want := MustRun(seq, mk())
			got := MustRun(par, mk())
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("parallel run diverged from sequential:\nseq: %v\npar: %v", want, got)
			}
			again := MustRun(par, mk())
			if !reflect.DeepEqual(got, again) {
				t.Fatalf("two parallel runs diverged:\n1st: %v\n2nd: %v", got, again)
			}
		})
	}
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

// TestParallelRunParityWithCodec covers the compressed-synchronization
// path, whose broadcast fans out across the pool.
func TestParallelRunParityWithCodec(t *testing.T) {
	base := testConfig(9)
	base.MaxSteps = 30
	base.EvalEvery = 10
	base.SyncCodec = compress.TopK{Fraction: 0.1}
	seq := MustRun(base, NewLinearFDA(0.05))
	par := base
	par.Parallelism = 4
	got := MustRun(par, NewLinearFDA(0.05))
	if !reflect.DeepEqual(seq, got) {
		t.Fatalf("codec run diverged under parallelism:\nseq: %v\npar: %v", seq, got)
	}
}

// TestParallelRunParityHeterogeneous runs the label-skew partitioner under
// parallelism: shard sizes differ across workers, so the pool sees uneven
// per-index work.
func TestParallelRunParityHeterogeneous(t *testing.T) {
	base := testConfig(11)
	base.MaxSteps = 30
	base.EvalEvery = 10
	base.Het = data.NonIIDLabel(0, 2)
	seq := MustRun(base, NewSketchFDA(0.1))
	par := base
	par.Parallelism = 3
	got := MustRun(par, NewSketchFDA(0.1))
	if !reflect.DeepEqual(seq, got) {
		t.Fatalf("heterogeneous run diverged under parallelism:\nseq: %v\npar: %v", seq, got)
	}
}
