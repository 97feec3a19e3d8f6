package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/runstore"
)

// Curve is one strategy's training-accuracy progression (Figure 7).
type Curve struct {
	Model    string
	Strategy string
	K        int
	Theta    float64
	// Epochs[i], TrainAcc[i], TestAcc[i] trace the run.
	Epochs   []float64
	TrainAcc []float64
	TestAcc  []float64
	// TargetEpoch is the first epoch at which the test target was met
	// (0 when never met) and Gap is the final train − target-test gap the
	// paper uses as its overfitting signal.
	Target      float64
	TargetEpoch float64
	Gap         float64
}

// Figure7 reproduces Figure 7: training-accuracy progression with a test
// accuracy target line, showing that the FDA variants reach the target
// earlier and with a smaller train/test gap (less overfitting) than
// Synchronous and FedAvgM on the DenseNet workloads.
func Figure7(o Options) []Curve {
	type panel struct {
		model  string
		target float64
		steps  int
	}
	panels := []panel{{"densenet121s", 0.75, 300}}
	if o.Scale != Tiny {
		panels = append(panels, panel{"densenet201s", 0.75, 450})
	}
	strategies := []string{"LinearFDA", "SketchFDA", "FedAvgM", "Synchronous"}

	// One cell per (panel, strategy); the runs are independent full-length
	// trajectories, so they dispatch through the store-aware scheduler
	// and the curves come back in panel-major order for printing. The
	// spec carries the panel's step budget (an input the grid coordinates
	// alone do not determine) in Extra.
	type cell struct {
		panel int
		strat string
	}
	lws := make([]*lazyWorkload, len(panels))
	var cells []cell
	for pi := range panels {
		lws[pi] = newLazyWorkload(panels[pi].model, o.Seed)
		for _, strat := range strategies {
			cells = append(cells, cell{pi, strat})
		}
	}
	specs := make([]runstore.Spec, len(cells))
	for i, c := range cells {
		p := panels[c.panel]
		th := 0.0
		if isFDA(c.strat) {
			th = lws[c.panel].spec.ThetaGrid[1]
		}
		sp := o.cellSpec("fig7", p.model, c.strat, th, 5, "iid", []float64{p.target}, o.Seed+7)
		sp.Extra = map[string]string{"steps": strconv.Itoa(p.steps), "train_acc": "1"}
		specs[i] = sp
	}
	perCell := runGrid(o, specs, func(i int) []Curve {
		p, w := panels[cells[i].panel], lws[cells[i].panel].get()
		strat := cells[i].strat
		theta := w.spec.ThetaGrid[1]
		cfg := w.baseConfig(5, o.Seed+7, p.steps, 20, 0 /* run full length */, data.IID())
		cfg.RecordTrainAccuracy = true
		res := core.MustRun(cfg, strategyFor(strat, theta, cfg))
		c := Curve{
			Model: p.model, Strategy: strat, K: 5, Target: p.target,
		}
		if isFDA(strat) {
			c.Theta = theta
		}
		for _, pt := range res.History {
			c.Epochs = append(c.Epochs, pt.Epoch)
			c.TrainAcc = append(c.TrainAcc, pt.TrainAcc)
			c.TestAcc = append(c.TestAcc, pt.TestAcc)
			if c.TargetEpoch == 0 && pt.TestAcc >= p.target {
				c.TargetEpoch = pt.Epoch
			}
		}
		if n := len(c.TrainAcc); n > 0 {
			c.Gap = c.TrainAcc[n-1] - c.TestAcc[n-1]
		}
		return []Curve{c}
	})
	curves := make([]Curve, len(cells))
	for i, cs := range perCell {
		if len(cs) > 0 {
			curves[i] = cs[0]
		}
	}

	out := o.out()
	for i, c := range curves {
		if i%len(strategies) == 0 {
			pi := cells[i].panel
			fmt.Fprintf(out, "\n== fig7 — %s, IID, K=5, Θ=%.3f, target %.2f ==\n",
				lws[pi].spec.PaperModel, lws[pi].spec.ThetaGrid[1], panels[pi].target)
		}
		fmt.Fprintf(out, "%-12s target@epoch=%.1f final train=%.3f test=%.3f gap=%.3f\n",
			c.Strategy, c.TargetEpoch, last(c.TrainAcc), last(c.TestAcc), c.Gap)
	}
	return curves
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
