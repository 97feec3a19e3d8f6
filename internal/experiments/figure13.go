package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/runstore"
)

// Figure13 reproduces Figure 13: the transfer-learning scenario. The
// ConvNeXt stand-in is first "pre-trained" centrally (emulating the
// ImageNet backbone + feature-extraction stage that reaches ≈60% on
// CIFAR-100 in the paper), then the whole model is fine-tuned with FDA
// across K ∈ {3, 5} workers over a Θ sweep, reporting the communication
// to reach the fine-tuning accuracy target. The paper's headline here is
// that LinearFDA needs ≈1.5× the communication of SketchFDA on this
// harder task.
func Figure13(o Options) []Record {
	spec, err := models.ByName("convnexts")
	if err != nil {
		panic(err)
	}
	train, test := models.DatasetFor(spec, o.Seed)

	// Pre-training stage (not part of the measured fine-tuning costs).
	pre := models.Pretrain(spec, train, 200, 32, o.Seed+99)
	preNet := spec.Build(testRNG(o.Seed))
	preNet.SetParams(pre)
	baseAcc := preNet.Accuracy(test)

	// Fine-tuning target sits well above the feature-extraction baseline,
	// mirroring the paper's 0.60 → 0.76 gap.
	target := baseAcc + 0.25

	w := workload{spec: spec, train: train, test: test}
	w.spec.Build = models.WithInit(spec.Build, pre)

	ks := []int{3}
	if o.Scale != Tiny {
		ks = []int{3, 5}
	}
	thetas := spec.ThetaGrid[:3]
	if o.Scale == Full {
		thetas = spec.ThetaGrid
	}

	out := o.out()
	fmt.Fprintf(out, "\n== fig13 — ConvNeXt fine-tuning: feature-extraction acc %.3f, target %.3f ==\n",
		baseAcc, target)

	type cell struct {
		k     int
		strat string
		theta float64
		seed  uint64
	}
	var cells []cell
	seed := o.Seed + 500
	for _, k := range ks {
		for _, strat := range []string{"LinearFDA", "SketchFDA"} {
			for _, th := range thetas {
				seed++
				cells = append(cells, cell{k, strat, th, seed})
			}
		}
	}
	// The pre-trained initialization is an extra cell input the grid
	// coordinates do not capture; its recipe goes into Extra. (The
	// pre-training stage itself always runs — the printed baseline
	// accuracy and the target derive from it — but the fine-tuning runs,
	// which dominate the cost, are cached.)
	pretrainTag := fmt.Sprintf("steps=200,b=32,seed=%d", o.Seed+99)
	specs := make([]runstore.Spec, len(cells))
	for i, c := range cells {
		sp := o.cellSpec("fig13", "convnexts", c.strat, c.theta, c.k, "iid",
			[]float64{target}, c.seed)
		sp.Extra = map[string]string{"pretrain": pretrainTag}
		specs[i] = sp
	}
	recs := flatten(runGrid(o, specs, func(i int) []Record {
		c := cells[i]
		return runToTargets("fig13", w, c.strat, c.theta, c.k,
			data.IID(), []float64{target}, c.seed, nil)
	}))
	printRecords(out, "fig13 — ConvNeXtLarge (convnexts) fine-tuning", recs)

	// The Linear/Sketch communication ratio the paper reports as ≈1.5×.
	// At the paper's 198M-parameter scale monitoring state is negligible,
	// so its "communication" is effectively synchronization traffic; the
	// comparable quantity at reproduction scale is ModelGB (total CommGB
	// is also reported — at small d the sketch state is proportionally
	// visible there, a documented deviation).
	var lin, sk, linAll, skAll []float64
	for _, r := range recs {
		if !r.Reached {
			continue
		}
		if r.Strategy == "LinearFDA" {
			lin = append(lin, r.ModelGB)
			linAll = append(linAll, r.CommGB)
		} else {
			sk = append(sk, r.ModelGB)
			skAll = append(skAll, r.CommGB)
		}
	}
	if len(lin) > 0 && len(sk) > 0 && median(sk) > 0 {
		fmt.Fprintf(out, "Linear/Sketch sync-traffic ratio (medians): %.2f\n", median(lin)/median(sk))
		fmt.Fprintf(out, "Linear/Sketch total-comm ratio   (medians): %.2f\n", median(linAll)/median(skAll))
	}
	return recs
}
