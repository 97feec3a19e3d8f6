package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/compress"
)

// runAsyncCase runs asynchronous FDA with Θ = theta over the linear or
// sketch estimator at the given per-worker speeds (nil: all equal),
// delivering events to sink, and reports the Result, the per-worker step
// counts and the final virtual clock.
func runAsyncCase(ctx context.Context, cfg Config, theta float64, sketch bool, speeds []float64, sink EventSink) (Result, []int, float64, error) {
	var inner Strategy = NewLinearFDA(theta)
	if sketch {
		inner = NewSketchFDA(theta)
	}
	if speeds != nil {
		scen, err := comm.SpeedsScenario(speeds)
		if err != nil {
			return Result{}, nil, 0, err
		}
		cfg.Fabric = comm.NewSimFabric(cfg.K, comm.DefaultCostModel(), scen)
	}
	sess, err := NewSession(ctx, cfg, NewAsyncFDA(inner))
	if err != nil {
		return Result{}, nil, 0, err
	}
	if sink != nil {
		sess.Subscribe(sink)
	}
	res, err := sess.Run()
	return res, res.StepsPerWorker, res.VirtualSec, err
}

// runAsync runs cfg under asynchronous LinearFDA at Θ = 0.1, on a fabric
// built from scen when it is non-nil.
func runAsync(t *testing.T, cfg Config, scen *comm.Scenario) Result {
	t.Helper()
	if scen != nil {
		cfg.Fabric = comm.NewSimFabric(cfg.K, comm.DefaultCostModel(), *scen)
	}
	res, err := Run(cfg, NewAsyncFDA(NewLinearFDA(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAsyncRunsAndTrains(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxSteps = 120
	res := runAsync(t, cfg, nil)
	if res.SyncCount == 0 {
		t.Fatal("async FDA never synchronized")
	}
	if res.FinalTestAcc < 0.5 {
		t.Fatalf("async accuracy %v", res.FinalTestAcc)
	}
}

func TestAsyncEqualSpeedsBalanceSteps(t *testing.T) {
	cfg := testConfig(2)
	cfg.MaxSteps = 60
	res := runAsync(t, cfg, nil)
	minS, maxS := res.StepsPerWorker[0], res.StepsPerWorker[0]
	for _, s := range res.StepsPerWorker {
		minS, maxS = min(minS, s), max(maxS, s)
	}
	if maxS-minS > 1 || res.Steps != maxS {
		t.Fatalf("equal speeds but steps spread %v (Steps %d)", res.StepsPerWorker, res.Steps)
	}
}

// TestAsyncStragglersKeepTrainingProportionally: a worker at a quarter
// of the speed makes about a quarter of the progress, and the scenario's
// straggler schedule slows its rank the same way.
func TestAsyncStragglersKeepTrainingProportionally(t *testing.T) {
	cfg := testConfig(3)
	cfg.MaxSteps = 100
	slow, err := comm.SpeedsScenario([]float64{1, 1, 1, 1, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res := runAsync(t, cfg, &slow)
	fast, straggler := res.StepsPerWorker[0], res.StepsPerWorker[4]
	if straggler == 0 {
		t.Fatal("straggler made no progress")
	}
	if ratio := float64(fast) / float64(straggler); ratio < 3 || ratio > 5.5 {
		t.Fatalf("fast/slow step ratio %v want ≈ 4 (steps %v)", ratio, res.StepsPerWorker)
	}

	// ScenarioStraggler stalls rank 0 to 8× on every fifth of its steps:
	// 12 step-times per 5 steps against the others' 5.
	res = runAsync(t, cfg, &comm.ScenarioStraggler)
	if ratio := float64(res.StepsPerWorker[1]) / float64(res.StepsPerWorker[0]); ratio < 2 || ratio > 3 {
		t.Fatalf("scheduled straggler: step ratio %v want ≈ 2.4 (steps %v)", ratio, res.StepsPerWorker)
	}
}

func TestAsyncSketchVariant(t *testing.T) {
	cfg := testConfig(4)
	cfg.MaxSteps = 60
	res, err := Run(cfg, NewAsyncFDA(NewSketchFDA(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "AsyncSketchFDA" {
		t.Fatalf("strategy %q", res.Strategy)
	}
	if res.SyncCount == 0 {
		t.Fatal("sketch variant never synced")
	}
}

// TestAsyncValidation covers every refusal: a non-positive speed, a
// negative Θ, an inner strategy that is not an FDA estimator, a fabric
// without per-rank step times (the TCP case) and a sync codec.
func TestAsyncValidation(t *testing.T) {
	if _, err := comm.SpeedsScenario([]float64{1, 1, 1, 1, 0}); err == nil {
		t.Fatal("expected non-positive speed error")
	}
	cfg := testConfig(5)
	refused := func(what string, cfg Config, strat Strategy) {
		t.Helper()
		if _, err := NewSession(context.Background(), cfg, strat); err == nil {
			t.Fatalf("%s accepted", what)
		}
	}
	refused("negative Θ", cfg, NewAsyncFDA(NewLinearFDA(-1)))
	refused("async Synchronous", cfg, NewAsyncFDA(NewSynchronous()))
	plain := cfg
	plain.Fabric = comm.NewCluster(cfg.K)
	refused("a fabric without a clock", plain, NewAsyncFDA(NewLinearFDA(0.1)))
	coded := cfg
	coded.SyncCodec = compress.TopK{Fraction: 0.1}
	refused("a sync codec", coded, NewAsyncFDA(NewLinearFDA(0.1)))
}

// TestAsyncVirtualTimeAdvances: the fabric clock ends at the last
// completion and every evaluation point carries the clock it was taken
// at.
func TestAsyncVirtualTimeAdvances(t *testing.T) {
	cfg := testConfig(6)
	cfg.MaxSteps = 40
	cfg.EvalEvery = 10
	res := runAsync(t, cfg, nil)
	if res.VirtualSec != 40 {
		t.Fatalf("virtual time %v, want 40 unit steps", res.VirtualSec)
	}
	prev := 0.0
	for _, p := range res.History {
		if p.VirtualSec <= prev {
			t.Fatalf("history clock %v after %v", p.VirtualSec, prev)
		}
		prev = p.VirtualSec
	}
}

// TestAsyncClockCountsCommunication: a state upload adds its link's time
// to its worker's cycle, and a synchronization delays every worker by its
// transfer time, so at equal speeds the clock ends at
// steps·(compute + upload) + syncs·(sync time). The sums are exact.
func TestAsyncClockCountsCommunication(t *testing.T) {
	cfg := testConfig(8)
	cfg.MaxSteps = 40
	scen := comm.Scenario{
		Links:             []comm.LinkProfile{{BandwidthBps: math.Inf(1), LatencySec: 0.5}},
		ComputeSecPerStep: 1,
	}
	res := runAsync(t, cfg, &scen)
	if res.SyncCount == 0 {
		t.Fatal("no synchronization to time")
	}
	if want := 40*1.5 + 0.5*float64(res.SyncCount); res.VirtualSec != want {
		t.Fatalf("virtual time %v, want %v (%d syncs, steps %v)", res.VirtualSec, want, res.SyncCount, res.StepsPerWorker)
	}
}

// TestAsyncResultIsACopy: a Result handed out mid-run keeps its
// per-worker step counts while the session steps on.
func TestAsyncResultIsACopy(t *testing.T) {
	cfg := testConfig(9)
	cfg.MaxSteps = 10
	sess, err := NewSession(context.Background(), cfg, NewAsyncFDA(NewLinearFDA(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		t.Helper()
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		step()
	}
	early := sess.Result()
	want := slices.Clone(early.StepsPerWorker)
	step()
	if !slices.Equal(early.StepsPerWorker, want) {
		t.Fatalf("handed-out steps moved from %v to %v", want, early.StepsPerWorker)
	}
}

func TestAsyncTargetStopsEarly(t *testing.T) {
	cfg := testConfig(7)
	cfg.TargetAccuracy = 0.5
	cfg.MaxSteps = 400
	if res := runAsync(t, cfg, nil); !res.ReachedTarget {
		t.Fatal("target not reached")
	}
}
