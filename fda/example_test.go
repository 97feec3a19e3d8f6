package fda_test

import (
	"fmt"

	"repro/fda"
)

// ExampleRun trains a small model across four simulated workers with
// LinearFDA and prints whether the accuracy target was reached. Runs are
// deterministic in the seed, so this example's output is stable.
func ExampleRun() {
	train, test := fda.MNISTLike(42)
	nz := fda.FitNormalizer(train)
	nz.Apply(train)
	nz.Apply(test)

	model := func(rng *fda.RNG) *fda.Network {
		return fda.NewNetwork(rng,
			fda.NewDense(train.Dim(), 32, fda.GlorotUniformInit),
			fda.NewReLU(32),
			fda.NewDense(32, 10, fda.GlorotUniformInit),
		)
	}
	cfg := fda.Config{
		K: 4, BatchSize: 32, Seed: 42,
		Model: model, Optimizer: fda.NewAdam(1e-3),
		Train: train, Test: test,
		TargetAccuracy: 0.9, MaxSteps: 800,
	}
	res, err := fda.Run(cfg, fda.NewLinearFDA(0.1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("strategy:", res.Strategy)
	fmt.Println("reached target:", res.ReachedTarget)
	// Output:
	// strategy: LinearFDA
	// reached target: true
}

// ExampleNewSketcher demonstrates the AMS sketch: estimating a squared
// norm from a compact summary and exploiting linearity.
func ExampleNewSketcher() {
	s := fda.NewSketcher(5, 250, 7)
	v := make([]float64, 10000)
	for i := range v {
		v[i] = 1 // ‖v‖² = 10000
	}
	est := fda.M2(s.Sketch(v))
	fmt.Println("within 10%:", est > 9000 && est < 11000)
	// Output:
	// within 10%: true
}

// ExampleHeterogeneity shows the paper's data-distribution scenarios.
func ExampleHeterogeneity() {
	fmt.Println(fda.IID())
	fmt.Println(fda.NonIIDPercent(60))
	fmt.Println(fda.NonIIDLabel(0))
	// Output:
	// IID
	// Non-IID: 60%
	// Non-IID: Label "0"
}

// ExampleCostModel shows the paper's communication accounting: one ring
// AllReduce of a d-dimensional float32 model across K workers.
func ExampleCostModel() {
	cm := fda.DefaultCostModel()
	const d, k = 1000, 8
	fmt.Println("per-worker bytes:", cm.PerWorkerBytes(d, k))
	fmt.Println("cluster total:  ", cm.TotalBytes(d, k))
	// Output:
	// per-worker bytes: 7000
	// cluster total:   56000
}
