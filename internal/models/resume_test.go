package models

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// TestEveryModelResumesExact: for each zoo model under its own optimizer
// (Adam, SGD with Nesterov momentum behind Dropout, AdamW), a LinearFDA
// session snapshotted mid-run, written through the checkpoint codec and
// restored into a fresh session finishes with a Result byte-equal to the
// uninterrupted run's. Everything a model carries across steps — its
// weights, its optimizer's moments and Dropout's mask streams — must
// therefore be in the snapshot.
func TestEveryModelResumesExact(t *testing.T) {
	const steps, snapStep = 40, 23
	for _, s := range Catalog() {
		train, test := DatasetFor(s, 9)
		cfg := core.Config{
			K: 2, BatchSize: 16, Seed: 9,
			Model: s.Build, Optimizer: s.Optimizer,
			Train: train, Test: test,
			MaxSteps: steps, EvalEvery: 20,
		}
		strategy := func() core.Strategy { return core.NewLinearFDA(s.ThetaGrid[0]) }
		want, err := json.Marshal(core.MustRun(cfg, strategy()))
		if err != nil {
			t.Fatal(err)
		}

		first, err := core.NewSession(context.Background(), cfg, strategy())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for first.StepCount() < snapStep {
			if _, err := first.Step(); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		}
		snap, err := first.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		image, _ := checkpoint.Marshal(snap)
		loaded, err := checkpoint.Unmarshal(image)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}

		resumed, err := core.NewSession(context.Background(), cfg, strategy())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := resumed.Restore(loaded); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		res, err := resumed.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: resumed at step %d\n got %s\nwant %s", s.Name, snapStep, got, want)
		}
		t.Logf("%s (%s): %d syncs", s.Name, s.OptimizerName, res.SyncCount)
	}
}
