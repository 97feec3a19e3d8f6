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
