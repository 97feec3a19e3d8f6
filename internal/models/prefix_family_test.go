package models

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestPrefixFamiliesPinned pins every prefix-sharing strategy's
// PrefixFamily string. The family is part of every stored
// prefix-snapshot address, so a changed string silently orphans the
// snapshots a run registry already holds. SketchFDA's family carries the
// sketch width derived from the model dimension (m = d/50 clamped to
// [16, 250]), its error bound ε = clamp(15/m, 0.06, 0.5) and the hash
// seed, so the rows below pin that derivation on each zoo model and,
// under AsyncFDA, the coordinator's m = 250, ε = 0.06 and Config.Seed
// derived seed.
func TestPrefixFamiliesPinned(t *testing.T) {
	s, err := ByName("lenet5s")
	if err != nil {
		t.Fatal(err)
	}
	train, test := DatasetFor(s, 3)
	cfg := core.Config{
		K: 2, BatchSize: 16, Seed: 9,
		Model: s.Build, Optimizer: s.Optimizer,
		Train: train, Test: test,
	}
	for _, c := range []struct {
		strat core.Strategy
		want  string
	}{
		{core.NewLinearFDA(0.1), "LinearFDA/xi0"},
		{core.NewOracleFDA(0.1), "OracleFDA"},
		{core.NewLocalSGD(5), "silent"},
		{core.NewFedAvgMFor(cfg), "silent"},
		{core.NewFedAdamFor(cfg), "silent"},
	} {
		if got := c.strat.(core.PrefixSharer).PrefixFamily(); got != c.want {
			t.Errorf("%s: PrefixFamily() = %q, want %q", c.strat.Name(), got, c.want)
		}
	}

	for _, c := range []struct{ model, want string }{
		{"lenet5s", "SketchFDA/l5/m52/e0.28846153846153844/s0"},
		{"vgg16s", "SketchFDA/l5/m250/e0.06/s0"},
		{"densenet121s", "SketchFDA/l5/m250/e0.06/s0"},
		{"densenet201s", "SketchFDA/l5/m250/e0.06/s0"},
		{"convnexts", "SketchFDA/l5/m250/e0.06/s0"},
	} {
		spec, err := ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		sk := core.NewSketchFDA(0.1)
		sk.Init(&core.Env{D: spec.Params, Workers: make([]*core.Worker, 2)})
		if got := sk.PrefixFamily(); got != c.want {
			t.Errorf("SketchFDA on %s: PrefixFamily() = %q, want %q", c.model, got, c.want)
		}
	}

	sk := core.NewSketchFDA(0.1)
	if _, err := core.NewSession(context.Background(), cfg, core.NewAsyncFDA(sk)); err != nil {
		t.Fatal(err)
	}
	if got, want := sk.PrefixFamily(), "SketchFDA/l5/m250/e0.06/s6046385"; got != want {
		t.Errorf("SketchFDA under AsyncFDA: PrefixFamily() = %q, want %q", got, want)
	}
}
