package fda_test

import (
	"path/filepath"
	"testing"

	"repro/fda"
)

// The extended facade surface: every layer constructor and checkpoints.
func TestFacadeNewLayersTrain(t *testing.T) {
	train, test := fda.MNISTLike(21)
	model := func(rng *fda.RNG) *fda.Network {
		conv := fda.NewConv2D(fda.Shape{H: 8, W: 8, C: 1}, 4, 3, fda.HeNormalInit)
		pool := fda.NewMaxPool2D(conv.OutShape(), 2)
		gap := fda.NewGlobalAvgPool(pool.OutShape())
		return fda.NewNetwork(rng,
			conv,
			fda.NewReLU(conv.OutDim()),
			pool,
			gap,
			fda.NewDropout(gap.OutDim(), 0.1, rng.Split()),
			fda.NewDense(gap.OutDim(), 16, fda.HeNormalInit),
			fda.NewReLU(16),
			fda.NewDense(16, 10, fda.GlorotUniformInit),
		)
	}
	cfg := fda.Config{
		K: 3, BatchSize: 16, Seed: 21,
		Model: model, Optimizer: fda.NewAdam(1e-3),
		Train: train, Test: test,
		MaxSteps: 30, EvalEvery: 15,
	}
	res := fda.MustRun(cfg, fda.NewLinearFDA(0.1))
	if res.Steps != 30 {
		t.Fatalf("run stopped early: %v", res)
	}
}

func TestFacadeCheckpointRoundTrip(t *testing.T) {
	train, _ := fda.MNISTLike(23)
	net := buildMLP(train.Dim(), train.NumClasses)(fda.NewRNG(23))
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := fda.SaveCheckpoint(path, &fda.Snapshot{Step: 7, Params: net.Params()}); err != nil {
		t.Fatal(err)
	}
	snap, err := fda.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 7 || len(snap.Params) != net.NumParams() {
		t.Fatalf("snapshot %+v", snap)
	}
	for i, v := range net.Params() {
		if snap.Params[i] != v {
			t.Fatal("checkpoint payload mismatch")
		}
	}
}
