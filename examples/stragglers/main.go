// Stragglers: the asynchronous FDA variant of §3.3. A coordinator
// aggregates small local states as they arrive and triggers
// synchronization from the most recent state of every worker, so slow
// workers never block fast ones. This example runs a cluster where one
// worker is 4× slower and shows per-worker progress.
//
// Run with:
//
//	go run ./examples/stragglers
package main

import (
	"fmt"

	"repro/fda"
)

func main() {
	train, test := fda.MNISTLike(5)
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
	d := model(fda.NewRNG(0)).NumParams()

	// Five nominal workers and one 4× straggler.
	scen, err := fda.SpeedsScenario([]float64{1, 1, 1, 1, 1, 0.25})
	if err != nil {
		panic(err)
	}
	cfg := fda.Config{
		K: 6, BatchSize: 32, Seed: 5,
		Model: model, Optimizer: fda.NewAdam(1e-3),
		Train: train, Test: test,
		TargetAccuracy: 0.93,
		MaxSteps:       800,
		Fabric:         fda.NewSimFabric(6, fda.DefaultCostModel(), scen),
	}
	res, err := fda.Run(cfg, fda.NewAsyncFDA(fda.NewLinearFDA(4e-5*float64(d))))
	if err != nil {
		panic(err)
	}
	fmt.Println(res)
	fmt.Printf("per-worker local steps: %v\n", res.StepsPerWorker)
	fmt.Printf("virtual clock at end:   %.1f step-times\n", res.VirtualSec)
	fmt.Println("\nthe straggler advanced at 1/4 the rate without ever blocking")
	fmt.Println("the cluster; synchronization still fires on variance evidence.")
}
