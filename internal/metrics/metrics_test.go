package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStdMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if Quantile(xs, 0.5) != 2.5 {
		t.Fatalf("median %v", Quantile(xs, 0.5))
	}
	if Quantile([]float64{3, 1, 2}, 0.5) != 2 {
		t.Fatal("odd median")
	}
	if Mean(nil) != 0 || Quantile(nil, 0.5) != 0 {
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

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearFit(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit %v %v", slope, intercept)
	}
}

func TestFitThroughOrigin(t *testing.T) {
	xs := []float64{1, 2, 4}
	ys := []float64{3, 6, 12}
	if got := FitThroughOrigin(xs, ys); math.Abs(got-3) > 1e-12 {
		t.Fatalf("slope %v", got)
	}
}

// Property: OLS residuals are orthogonal to x (normal equations hold).
func TestLinearFitNormalEquationProperty(t *testing.T) {
	f := func(raw [6]float64) bool {
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := make([]float64, 6)
		for i, r := range raw {
			ys[i] = math.Mod(r, 100)
			if math.IsNaN(ys[i]) {
				ys[i] = 0
			}
		}
		slope, intercept := LinearFit(xs, ys)
		var dot, sum float64
		for i := range xs {
			r := ys[i] - (slope*xs[i] + intercept)
			dot += r * xs[i]
			sum += r
		}
		return math.Abs(dot) < 1e-6 && math.Abs(sum) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
