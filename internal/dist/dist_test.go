package dist

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/models"
)

// testSpec is a fast distributed job: the smallest zoo model, two
// workers, a handful of steps.
func testSpec() JobSpec {
	return JobSpec{
		Model: "lenet5s", Strategy: "LinearFDA", Theta: 0.1,
		K: 2, Batch: 16, Steps: 24, EvalEvery: 8, Seed: 9,
	}
}

// runDistributed executes spec as a real coordinator + K worker
// processes collapsed into goroutines (same code paths, same wire
// protocol, loopback sockets).
func runDistributed(t *testing.T, spec JobSpec) (core.Result, []core.Result) {
	t.Helper()
	coord, err := comm.ListenCoordinator("127.0.0.1:0", spec.K)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	workerRes := make([]core.Result, spec.K)
	workerErr := make([]error, spec.K)
	for w := 0; w < spec.K; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, rank, err := RunWorker(ctx, coord.Addr(), 1)
			if err != nil {
				workerErr[w] = err
				return
			}
			workerRes[rank] = res
		}(w)
	}
	res, err := Coordinate(ctx, coord, spec)
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	for w, werr := range workerErr {
		if werr != nil {
			t.Fatalf("worker %d: %v", w, werr)
		}
	}
	return res, workerRes
}

// TestDistributedMatchesLocal pins the whole dist stack: a coordinator
// driving RunWorker processes over real sockets produces exactly the
// Result (accuracy bits, byte counts, sync schedule, history) of an
// in-process run built from the same JobSpec.
func TestDistributedMatchesLocal(t *testing.T) {
	spec := testSpec().WithDefaults()

	cfg, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Run(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}

	distRes, workerRes := runDistributed(t, spec)
	if !reflect.DeepEqual(local, distRes) {
		t.Fatalf("distributed result diverged from local:\n%+v\nvs\n%+v", distRes, local)
	}
	for rank, wr := range workerRes {
		if math.Float64bits(wr.FinalTestAcc) != math.Float64bits(local.FinalTestAcc) {
			t.Fatalf("rank %d accuracy %v, local %v", rank, wr.FinalTestAcc, local.FinalTestAcc)
		}
		if wr.CommBytes != local.CommBytes {
			t.Fatalf("rank %d charged %d bytes, local %d", rank, wr.CommBytes, local.CommBytes)
		}
	}
	if local.SyncCount == 0 {
		t.Fatal("degenerate test: no synchronizations happened")
	}
}

// TestCoordinateRejectsDivergence exercises the verification half of
// Coordinate through its helper.
func TestCoordinateRejectsDivergence(t *testing.T) {
	a := core.Result{Steps: 10, FinalTestAcc: 0.5}
	b := a
	if err := sameResult(a, b); err != nil {
		t.Fatalf("equal results rejected: %v", err)
	}
	b.FinalTestAcc = math.Nextafter(0.5, 1)
	if err := sameResult(a, b); err == nil {
		t.Fatal("diverged accuracy accepted")
	}
	b = a
	b.CommBytes = 1
	if err := sameResult(a, b); err == nil {
		t.Fatal("diverged byte accounting accepted")
	}
}

// TestJobSpecDefaults pins the documented zero-value behavior.
func TestJobSpecDefaults(t *testing.T) {
	s := JobSpec{Model: "lenet5s", Strategy: "LinearFDA"}.WithDefaults()
	if s.K != 5 || s.Batch != 32 || s.Steps != 200 || s.EvalEvery != 20 || s.Seed != 1 {
		t.Fatalf("defaults: %+v", s)
	}
	if s.Theta <= 0 {
		t.Fatalf("theta default not taken from the model grid: %v", s.Theta)
	}
	if _, err := (JobSpec{Model: "nope", Strategy: "LinearFDA"}).WithDefaults().BuildConfig(); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := StrategyFor("nope", 0, 1, core.Config{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestJobSpecValidate pins admission-time validation: every strategy of
// the index (including the FedOpt ones, whose constructors read the
// training set) passes without datasets, and each kind of bad input is
// rejected — field errors structured, with no Train/Test noise.
func TestJobSpecValidate(t *testing.T) {
	for _, name := range []string{"LinearFDA", "SketchFDA", "OracleFDA", "Synchronous", "LocalSGD", "FedAvgM", "FedAdam"} {
		if err := (JobSpec{Model: "lenet5s", Strategy: name}).WithDefaults().Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []JobSpec{
		{Model: "nope", Strategy: "LinearFDA"},
		{Model: "lenet5s", Strategy: "Nope"},
		{Model: "lenet5s", Strategy: "LinearFDA", Het: "bogus"},
		// A negative Θ is refused at admission, not left to fail the job.
		{Model: "lenet5s", Strategy: "SketchFDA", Theta: -1},
		{Model: "lenet5s", Strategy: "LinearFDA", Theta: -1},
		{Model: "lenet5s", Strategy: "OracleFDA", Theta: -0.5},
		// A negative τ is refused for every strategy, not handed to a
		// constructor that panics on it.
		{Model: "lenet5s", Strategy: "LocalSGD", Tau: -1},
		{Model: "lenet5s", Strategy: "LinearFDA", Tau: -1},
	} {
		if err := bad.WithDefaults().Validate(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	var cerr *core.ConfigError
	err := JobSpec{Model: "lenet5s", Strategy: "LinearFDA", K: -2, Steps: -1}.WithDefaults().Validate()
	if !errors.As(err, &cerr) || len(cerr.Fields) != 2 || cerr.Fields[0].Field != "K" || cerr.Fields[1].Field != "MaxSteps" {
		t.Fatalf("want field errors for K and MaxSteps only, got %v", err)
	}
	err = JobSpec{Model: "lenet5s", Strategy: "LocalSGD", Tau: -1}.WithDefaults().Validate()
	if !errors.As(err, &cerr) || len(cerr.Fields) != 1 || cerr.Fields[0].Field != "Tau" {
		t.Fatalf("want a field error for Tau only, got %v", err)
	}
}

// TestJobSpecAdmissionAllocs bounds what admission spends per spec —
// defaults, validation, the dedupe key — for every zoo model: a few
// small allocations, not a build of the zoo's networks per call.
func TestJobSpecAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	for _, m := range models.Catalog() {
		spec := JobSpec{Model: m.Name, Strategy: "LinearFDA"}
		n := testing.AllocsPerRun(10, func() {
			s := spec.WithDefaults()
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			_ = s.Key()
		})
		if n > 32 {
			t.Errorf("%s: admission allocates %v times, want at most 32", m.Name, n)
		}
	}
}
