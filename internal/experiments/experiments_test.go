package experiments

import (
	"strings"
	"testing"

	"repro/internal/data"
)

func TestScaleString(t *testing.T) {
	if Tiny.String() != "tiny" || Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale names wrong")
	}
}

func TestGridsGrowWithScale(t *testing.T) {
	grid := []float64{1, 2, 3, 4}
	kT, thT := Options{Scale: Tiny}.grids(grid)
	kQ, thQ := Options{Scale: Quick}.grids(grid)
	kF, thF := Options{Scale: Full}.grids(grid)
	if len(kT) >= len(kQ) || len(kQ) >= len(kF) {
		t.Fatalf("K grids not increasing: %v %v %v", kT, kQ, kF)
	}
	if len(thT) >= len(thQ) || len(thQ) > len(thF) {
		t.Fatalf("Θ grids not increasing: %v %v %v", thT, thQ, thF)
	}
}

func TestStrategyForKnownNames(t *testing.T) {
	w := loadWorkload("lenet5s", 1)
	cfg := w.baseConfig(2, 1, 10, 5, 0, data.IID())
	for _, name := range []string{"LinearFDA", "SketchFDA", "OracleFDA", "Synchronous", "FedAvg", "FedAvgM", "FedAdam"} {
		s := strategyFor(name, 0.1, cfg)
		if s == nil {
			t.Fatalf("nil strategy for %s", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown strategy")
		}
	}()
	strategyFor("nope", 0, cfg)
}

func TestIsFDA(t *testing.T) {
	if !isFDA("LinearFDA") || !isFDA("SketchFDA") || !isFDA("OracleFDA") {
		t.Fatal("FDA variants not recognized")
	}
	if isFDA("Synchronous") || isFDA("FedAdam") {
		t.Fatal("baselines misclassified")
	}
}

func TestMedianHelper(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
}

func TestRunToTargetsNestedExtraction(t *testing.T) {
	// One short lenet run, two nested targets: the lower target must cross
	// no later and cost no more than the higher one.
	w := loadWorkload("lenet5s", 3)
	recs := runToTargets("t", w, "Synchronous", 0, 3, data.IID(), []float64{0.5, 0.8}, 7, nil)
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	lo, hi := recs[0], recs[1]
	if !lo.Reached || !hi.Reached {
		t.Fatalf("targets not reached: %+v %+v", lo, hi)
	}
	if lo.Steps > hi.Steps || lo.CommGB > hi.CommGB {
		t.Fatalf("nested extraction inverted: lo=%+v hi=%+v", lo, hi)
	}
	if lo.Target != 0.5 || hi.Target != 0.8 {
		t.Fatal("target labels wrong")
	}
}

func TestRunToTargetsUnreachedMarked(t *testing.T) {
	w := loadWorkload("lenet5s", 4)
	// Impossible target within a tiny budget.
	recs := func() []Record {
		// shrink the budget by overriding through a custom config run: use
		// an absurd target so Reached must be false.
		return runToTargets("t", w, "LinearFDA", w.spec.ThetaGrid[3], 2, data.IID(), []float64{1.01}, 8, nil)
	}()
	if recs[0].Reached {
		t.Fatal("impossible target marked reached")
	}
	if recs[0].Steps == 0 {
		t.Fatal("no steps recorded for unreached run")
	}
}

func TestTable2Structure(t *testing.T) {
	var b strings.Builder
	tab := Table2(Options{Scale: Tiny, Out: &b})
	if tab.Len() != 5 {
		t.Fatalf("Table 2 has %d rows", tab.Len())
	}
	out := b.String()
	for _, want := range []string{"LeNet-5", "VGG16*", "DenseNet121", "DenseNet201", "ConvNeXtLarge", "SGD-NM", "AdamW"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

// One end-to-end figure at minimal scale: Figure 8's sweep logic on the
// cheapest model, checking the paper-shape invariants that higher Θ does
// not increase communication and Synchronous communicates most.
func TestFigure8ShapeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	recs := Figure8(Options{Scale: Tiny, Seed: 5})
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	// Collect the Θ-sweep records for LinearFDA.
	var thetas, comms []float64
	maxSyncComm := 0.0
	minFDAComm := 1e18
	for _, r := range recs {
		if r.Figure == "fig8-Theta" && r.Strategy == "LinearFDA" && r.Reached {
			thetas = append(thetas, r.Theta)
			comms = append(comms, r.CommGB)
		}
		if r.Figure == "fig8-K" && r.Reached {
			if r.Strategy == "Synchronous" && r.CommGB > maxSyncComm {
				maxSyncComm = r.CommGB
			}
			if isFDA(r.Strategy) && r.CommGB < minFDAComm {
				minFDAComm = r.CommGB
			}
		}
	}
	if len(comms) < 2 {
		t.Fatalf("Θ sweep too small: %v", comms)
	}
	// Communication should not increase with Θ (allow 20% noise slack).
	for i := 1; i < len(comms); i++ {
		if comms[i] > comms[i-1]*1.2 {
			t.Fatalf("comm grew with Θ: %v at thetas %v", comms, thetas)
		}
	}
	if maxSyncComm == 0 || minFDAComm == 1e18 {
		t.Fatal("missing strategies in K sweep")
	}
	if minFDAComm*2 > maxSyncComm {
		t.Fatalf("FDA comm %v not well below Synchronous %v", minFDAComm, maxSyncComm)
	}
}
