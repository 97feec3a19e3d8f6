// Session: drive a training run incrementally — observe its typed event
// stream, cancel it mid-flight, checkpoint it, and resume into a result
// bit-identical to a run that was never interrupted.
//
// Run with:
//
//	go run ./examples/session
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"

	"repro/fda"
)

func main() {
	// A small synthetic task and model (see examples/quickstart for the
	// walk-through of these pieces).
	train, test := fda.MNISTLike(7)
	model := func(rng *fda.RNG) *fda.Network {
		return fda.NewNetwork(rng,
			fda.NewDense(64, 32, fda.GlorotUniformInit),
			fda.NewReLU(32),
			fda.NewDense(32, 10, fda.GlorotUniformInit),
		)
	}
	cfg := fda.Config{
		K: 6, BatchSize: 32, Seed: 7,
		Model: model, Optimizer: fda.NewAdam(1e-3),
		Train: train, Test: test,
		MaxSteps: 120, EvalEvery: 30,
		Parallelism: fda.AutoParallelism,
	}
	theta := 0.05
	newStrat := func() fda.Strategy { return fda.NewLinearFDA(theta) }

	// Reference: the batch API (itself a thin loop over a session).
	want := fda.MustRun(cfg, newStrat())

	// 1. A session with a live event stream.
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := fda.NewSession(ctx, cfg, newStrat())
	check(err)
	sess.Subscribe(func(e fda.Event) {
		switch ev := e.(type) {
		case fda.SyncEvent:
			fmt.Printf("  sync #%d at step %d (%s, %d bytes)\n",
				ev.SyncCount, ev.Step, ev.Trigger, ev.SyncBytes)
		case fda.EvalEvent:
			fmt.Printf("  eval at step %d: acc=%.4f\n", ev.Point.Step, ev.Point.TestAcc)
		}
	})

	// 2. Step it halfway, then cancel — as a served run would be when its
	//    client disappears.
	for sess.StepCount() < 60 {
		if _, err := sess.Step(); err != nil {
			check(err)
		}
	}
	cancel()
	if _, err := sess.Step(); !errors.Is(err, context.Canceled) {
		check(fmt.Errorf("expected cancellation, got %v", err))
	}
	fmt.Printf("cancelled at step %d\n", sess.StepCount())

	// 3. Snapshot the full training state and persist it.
	snap, err := sess.Snapshot()
	check(err)
	path := "session-example.ckpt"
	check(fda.SaveCheckpoint(path, snap))
	defer os.Remove(path)

	// 4. Resume in a fresh session (fresh process, in real life) and run
	//    to completion.
	loaded, err := fda.LoadCheckpoint(path)
	check(err)
	resumed, err := fda.NewSession(context.Background(), cfg, newStrat())
	check(err)
	check(resumed.Restore(loaded))
	got, err := resumed.Run()
	check(err)

	// 5. The resumed trajectory is the uninterrupted one, bit for bit.
	fmt.Printf("uninterrupted: %v\n", want)
	fmt.Printf("resumed:       %v\n", got)
	if !reflect.DeepEqual(want, got) {
		check(errors.New("resumed run diverged"))
	}
	fmt.Println("cancelled-then-resumed run matches the uninterrupted run exactly")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "session example:", err)
		os.Exit(1)
	}
}
