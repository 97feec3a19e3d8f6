package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestMeanStdMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Quantile(xs, 0.5) != 2.5 {
		t.Fatalf("median %v", Quantile(xs, 0.5))
	}
	if Quantile([]float64{3, 1, 2}, 0.5) != 2 {
		t.Fatal("odd median")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty-input behaviour")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 10}
	if Quantile(xs, 0.25) != 2.5 {
		t.Fatalf("q25 = %v", Quantile(xs, 0.25))
	}
	if Quantile(xs, 0) != 0 || Quantile(xs, 1) != 10 {
		t.Fatal("extreme quantiles")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile(xs, 1.5)
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input reordered")
	}
}

func TestFitThroughOrigin(t *testing.T) {
	xs := []float64{1, 2, 4}
	ys := []float64{3, 6, 12}
	if got := FitThroughOrigin(xs, ys); math.Abs(got-3) > 1e-12 {
		t.Fatalf("slope %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 22)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") {
		t.Fatalf("render missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header+sep+2 rows, got %d lines", len(lines))
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTableArityPanics(t *testing.T) {
	tb := NewTable("a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("only-one")
}
