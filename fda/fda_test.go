package fda_test

import (
	"fmt"
	"testing"

	"repro/fda"
)

// buildMLP is the canonical quickstart model.
func buildMLP(dim, classes int) fda.ModelBuilder {
	return func(rng *fda.RNG) *fda.Network {
		return fda.NewNetwork(rng,
			fda.NewDense(dim, 32, fda.GlorotUniformInit),
			fda.NewReLU(32),
			fda.NewDense(32, classes, fda.GlorotUniformInit),
		)
	}
}

// The facade must support the full documented quickstart flow.
func TestFacadeQuickstartFlow(t *testing.T) {
	train, test := fda.MNISTLike(1)
	nz := fda.FitNormalizer(train)
	nz.Apply(train)
	nz.Apply(test)

	cfg := fda.Config{
		K: 4, BatchSize: 32, Seed: 1,
		Model:     buildMLP(train.Dim(), train.NumClasses),
		Optimizer: fda.NewAdam(1e-3),
		Train:     train, Test: test,
		MaxSteps: 120, EvalEvery: 30,
	}
	res := fda.MustRun(cfg, fda.NewLinearFDA(0.08))
	if res.Steps != 120 {
		t.Fatalf("run stopped early: %v", res)
	}
	if res.CommBytes == 0 {
		t.Fatal("no communication recorded")
	}

	res2, err := fda.Run(cfg, fda.NewSketchFDA(0.08))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Strategy != "SketchFDA" {
		t.Fatalf("strategy %q", res2.Strategy)
	}
}

func TestFacadeHeterogeneityAndBaselines(t *testing.T) {
	train, test := fda.MNISTLike(2)
	cfg := fda.Config{
		K: 4, BatchSize: 16, Seed: 2,
		Model:     buildMLP(train.Dim(), train.NumClasses),
		Optimizer: fda.NewAdam(1e-3),
		Train:     train, Test: test,
		Het:      fda.NonIIDLabel(0),
		MaxSteps: 40, EvalEvery: 20,
	}
	for _, s := range []fda.Strategy{
		fda.NewSynchronous(),
		fda.NewLocalSGD(10),
		fda.NewFedAdamFor(cfg),
	} {
		res := fda.MustRun(cfg, s)
		if res.Steps != 40 {
			t.Fatalf("%s stopped early", res.Strategy)
		}
	}
}

func TestFacadeAsync(t *testing.T) {
	train, test := fda.MNISTLike(3)
	scen, err := fda.SpeedsScenario([]float64{1, 1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fda.Config{
		K: 3, BatchSize: 16, Seed: 3,
		Model:     buildMLP(train.Dim(), train.NumClasses),
		Optimizer: fda.NewAdam(1e-3),
		Train:     train, Test: test,
		MaxSteps: 30,
		Fabric:   fda.NewSimFabric(3, fda.DefaultCostModel(), scen),
	}
	res, err := fda.Run(cfg, fda.NewAsyncFDA(fda.NewLinearFDA(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.StepsPerWorker); got != "[36 36 18]" || res.VirtualSec != 36 {
		t.Fatalf("per-worker steps %s, virtual clock %v", got, res.VirtualSec)
	}
}

func TestFacadeModelZooAndSketches(t *testing.T) {
	if len(fda.ModelCatalog()) != 5 {
		t.Fatal("zoo size")
	}
	spec, err := fda.ModelByName("lenet5s")
	if err != nil {
		t.Fatal(err)
	}
	tr, te := fda.DatasetForModel(spec, 1)
	if tr.Len() == 0 || te.Len() == 0 {
		t.Fatal("empty zoo datasets")
	}

	sk := fda.NewSketcher(5, 64, 1)
	v := make([]float64, 500)
	for i := range v {
		v[i] = 1
	}
	est := fda.M2(sk.Sketch(v))
	if est < 250 || est > 1000 {
		t.Fatalf("M2 estimate %v far from 500", est)
	}
}

func TestFacadeProfilesAndCostModel(t *testing.T) {
	if fda.DefaultCostModel().BytesPerParam != 4 {
		t.Fatal("cost model default")
	}
	if fda.ProfileFL.BandwidthBps >= fda.ProfileHPC.BandwidthBps {
		t.Fatal("profile ordering")
	}
	_ = fda.ProfileBalanced
}
