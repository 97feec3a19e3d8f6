package fda_test

import (
	"errors"
	"testing"

	"repro/fda"
)

// TestValidateStructuredErrors: the facade surfaces per-field errors.
func TestValidateStructuredErrors(t *testing.T) {
	err := fda.Config{K: -2}.Validate()
	var cerr *fda.ConfigError
	if !errors.As(err, &cerr) {
		t.Fatalf("want *fda.ConfigError, got %T (%v)", err, err)
	}
	found := false
	for _, f := range cerr.Fields {
		if f.Field == "K" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no K field error in %v", cerr)
	}
}

// foreignSGD is an optimizer written outside the module: it cannot embed
// the optimizers' watch, and its Watch does nothing.
type foreignSGD struct{}

func (foreignSGD) Step(params, grads []float64) {
	for i, g := range grads {
		params[i] -= 0.05 * g
	}
}
func (foreignSGD) Reset()                                       {}
func (foreignSGD) Name() string                                 { return "foreignSGD" }
func (foreignSGD) Watch(*[]float64, []float64, []float64, *int) {}

// TestSilentOptimizerErrorFacade: a program outside the module can name
// the error a LinearFDA run gets when its optimizer never reports the
// drift, instead of parsing the message.
func TestSilentOptimizerErrorFacade(t *testing.T) {
	train, test := fda.MNISTLike(4)
	cfg := fda.Config{
		K: 2, BatchSize: 16, Seed: 4,
		Model:     buildMLP(train.Dim(), train.NumClasses),
		Optimizer: func() fda.Optimizer { return foreignSGD{} },
		Train:     train, Test: test,
		MaxSteps: 10, EvalEvery: 5,
	}
	_, err := fda.Run(cfg, fda.NewLinearFDA(0.1))
	var silent *fda.SilentOptimizerError
	if !errors.As(err, &silent) || silent.Optimizer != "foreignSGD" {
		t.Fatalf("want a *fda.SilentOptimizerError naming foreignSGD, got %T (%v)", err, err)
	}
}
