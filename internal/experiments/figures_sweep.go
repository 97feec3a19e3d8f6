package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/runstore"
)

// Figures 8–11 share one shape: for a fixed model and accuracy target,
// (top) sweep the number of workers K at a fixed Θ for all strategies,
// and (bottom) sweep Θ at a fixed K for the two FDA variants.

type sweepSpec struct {
	figure     string
	model      string
	target     float64
	strategies []string // for the K sweep
}

// sweepGrids returns the K values and Θ values for the scale.
func (o Options) sweepGrids(thetaGrid []float64) (ks []int, thetas []float64, fixedK int) {
	switch o.Scale {
	case Tiny:
		return []int{3, 5}, thetaGrid[1:3], 5
	case Quick:
		return []int{3, 5, 10, 15}, thetaGrid, 5
	default:
		return []int{5, 10, 15, 20, 30, 45, 60}, thetaGrid, 30
	}
}

func sweepFigure(ss sweepSpec, o Options) []Record {
	lw := newLazyWorkload(ss.model, o.Seed)
	ks, thetas, fixedK := o.sweepGrids(lw.spec.ThetaGrid)
	fixedTheta := lw.spec.ThetaGrid[1]
	targets := []float64{ss.target}

	// Enumerate both panels (seed order matches the sequential loops),
	// then dispatch the cells through the store-aware scheduler in grid
	// order.
	type cell struct {
		figure string
		strat  string
		theta  float64
		k      int
		seed   uint64
	}
	var cells []cell
	seed := o.Seed + 1000

	// Top panels: cost vs K at fixed Θ.
	for _, strat := range ss.strategies {
		for _, k := range ks {
			seed++
			th := 0.0
			if isFDA(strat) {
				th = fixedTheta
			}
			cells = append(cells, cell{ss.figure + "-K", strat, th, k, seed})
		}
	}
	// Bottom panels: cost vs Θ at fixed K for the FDA variants. All
	// cells of one variant's Θ series share a single trajectory seed — Θ
	// only decides when the first synchronization fires, so the cells are
	// prefix-siblings and, with Options.Warm, serve each other trajectory
	// snapshots instead of all training from step 0.
	for _, strat := range []string{"LinearFDA", "SketchFDA"} {
		seed++
		for _, th := range thetas {
			cells = append(cells, cell{ss.figure + "-Theta", strat, th, fixedK, seed})
		}
	}
	specs := make([]runstore.Spec, len(cells))
	for i, c := range cells {
		specs[i] = o.cellSpec(c.figure, ss.model, c.strat, c.theta, c.k, "iid", targets, c.seed)
	}
	recs := flatten(runGrid(o, specs, func(i int) []Record {
		c := cells[i]
		return runToTargets(c.figure, lw.get(), c.strat, c.theta, c.k, data.IID(),
			targets, c.seed, o.warmCell(specs[i]))
	}))
	printRecords(o.out(), fmt.Sprintf("%s — %s: cost vs K (Θ=%.3f) and vs Θ (K=%d), target %.2f",
		ss.figure, lw.spec.PaperModel, fixedTheta, fixedK, ss.target), recs)
	return recs
}

// Figure8 reproduces Figure 8: LeNet-5 on MNIST, varying K and Θ.
// Paper target 0.98 → scaled 0.93.
func Figure8(o Options) []Record {
	return sweepFigure(sweepSpec{
		figure: "fig8", model: "lenet5s", target: 0.93,
		strategies: []string{"LinearFDA", "SketchFDA", "FedAdam", "Synchronous"},
	}, o)
}

// Figure9 reproduces Figure 9: VGG16* on MNIST, varying K and Θ.
// Paper target 0.994 → scaled 0.96.
func Figure9(o Options) []Record {
	return sweepFigure(sweepSpec{
		figure: "fig9", model: "vgg16s", target: 0.96,
		strategies: []string{"LinearFDA", "SketchFDA", "FedAdam", "Synchronous"},
	}, o)
}

// Figure10 reproduces Figure 10: DenseNet121 on CIFAR-10, varying K and Θ.
// Paper target 0.8 → scaled 0.75.
func Figure10(o Options) []Record {
	return sweepFigure(sweepSpec{
		figure: "fig10", model: "densenet121s", target: 0.75,
		strategies: []string{"LinearFDA", "SketchFDA", "FedAvgM", "Synchronous"},
	}, o)
}

// Figure11 reproduces Figure 11: DenseNet201 on CIFAR-10, varying K and Θ.
// Paper target 0.78 → scaled 0.75.
func Figure11(o Options) []Record {
	ss := sweepSpec{
		figure: "fig11", model: "densenet201s", target: 0.75,
		strategies: []string{"LinearFDA", "SketchFDA", "FedAvgM", "Synchronous"},
	}
	if o.Scale == Tiny {
		// The largest standard model: trim the Tiny K sweep to stay inside
		// the benchmark budget while keeping the FDA-vs-Synchronous and
		// Θ-trend comparisons.
		ss.strategies = []string{"LinearFDA", "Synchronous"}
	}
	return sweepFigure(ss, o)
}
