package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/runstore"
)

// ThetaFit is one deployment setting's empirical Θ* ≈ c·d line (Figure 12).
type ThetaFit struct {
	Setting string
	// Slope is the fitted constant c in Θ* = c·d.
	Slope float64
	// Points are the per-model (d, Θ*) pairs behind the fit.
	Dims, BestTheta []float64
}

// Figure12 reproduces Figure 12: for each deployment setting (FL,
// Balanced, ARIS-HPC network profiles), sweep Θ per model, pick the Θ*
// that minimizes estimated training wall-time under that profile, and fit
// Θ* = c·d through the origin. The paper's finding — slower networks favor
// larger Θ, and Θ* grows linearly with d — is reproduced as the ordering
// slope(FL) ≥ slope(Balanced) ≥ slope(HPC).
func Figure12(o Options) []ThetaFit {
	modelNames := []string{"lenet5s", "vgg16s", "densenet121s"}
	if o.Scale == Full {
		modelNames = append(modelNames, "densenet201s")
	}
	targets := map[string]float64{
		"lenet5s": 0.93, "vgg16s": 0.96, "densenet121s": 0.75, "densenet201s": 0.75,
	}
	// computeSecPerStep is the assumed per-step computation time used to
	// translate steps into wall-time alongside the profile's network time,
	// and byteScale rescales the metered bytes to the paper's regime: the
	// scaled models are O(100×) smaller than the paper's, so without
	// rescaling the communication term would be negligible on every
	// profile and all settings would pick the same compute-optimal Θ*.
	// byteScale ≈ the paper-to-reproduction model-size ratio restores the
	// comm/compute balance the figure is about.
	const computeSecPerStep = 0.05
	const byteScale = 300

	profiles := []comm.NetworkProfile{comm.ProfileFL, comm.ProfileBalanced, comm.ProfileHPC}

	// cell is one reached (model, Θ) run's cost summary. It holds raw
	// byte counts rather than a live meter so it can persist in the run
	// registry; profile wall-times are derived from the bytes post-hoc.
	type cell struct {
		Theta      float64 `json:"theta"`
		Steps      int     `json:"steps"`
		StateBytes int64   `json:"state_bytes"`
		ModelBytes int64   `json:"model_bytes"`
	}
	out := o.out()
	fmt.Fprintf(out, "\n== fig12 — empirical Θ* vs d per deployment setting ==\n")

	// Run the Θ sweeps once per model; evaluate every profile on the same
	// sweep (wall-time is a post-hoc function of the byte counts). The
	// (model, Θ) runs are independent, so they dispatch through the
	// store-aware scheduler; unreached cells come back empty and the
	// per-model sweep keeps Θ order.
	type job struct {
		name  string
		lw    *lazyWorkload
		theta float64
	}
	var jobsList []job
	dims := map[string]float64{}
	for _, name := range modelNames {
		lw := newLazyWorkload(name, o.Seed)
		dims[name] = float64(lw.spec.Params)
		thetas := lw.spec.ThetaGrid
		if o.Scale == Tiny {
			thetas = thetas[:3]
		}
		for _, th := range thetas {
			jobsList = append(jobsList, job{name, lw, th})
		}
	}
	specs := make([]runstore.Spec, len(jobsList))
	for i, j := range jobsList {
		specs[i] = o.cellSpec("fig12", j.name, "LinearFDA", j.theta, 3, "iid",
			[]float64{targets[j.name]}, o.Seed+31)
	}
	results := runGrid(o, specs, func(i int) []cell {
		j := jobsList[i]
		maxSteps, evalEvery := modelBudget(j.name)
		cfg := j.lw.get().baseConfig(3, o.Seed+31, maxSteps, evalEvery, targets[j.name], data.IID())
		res := core.MustRun(cfg, core.NewLinearFDA(j.theta))
		if !res.ReachedTarget {
			return nil
		}
		return []cell{{Theta: j.theta, Steps: res.Steps,
			StateBytes: res.StateBytes, ModelBytes: res.ModelBytes}}
	})
	sweeps := map[string][]cell{}
	for i, cs := range results {
		if len(cs) > 0 {
			sweeps[jobsList[i].name] = append(sweeps[jobsList[i].name], cs[0])
		}
	}

	var fits []ThetaFit
	for _, p := range profiles {
		fit := ThetaFit{Setting: p.Name}
		for _, name := range modelNames {
			best := -1
			bestTime := 0.0
			for i, c := range sweeps[name] {
				scaled := comm.NewMeter()
				scaled.Charge("model", int64(byteScale*float64(c.ModelBytes)))
				scaled.Charge("state", int64(byteScale*float64(c.StateBytes)))
				t := p.CommTime(scaled) + computeSecPerStep*float64(c.Steps)
				if best < 0 || t < bestTime {
					best, bestTime = i, t
				}
			}
			if best < 0 {
				continue
			}
			fit.Dims = append(fit.Dims, dims[name])
			fit.BestTheta = append(fit.BestTheta, sweeps[name][best].Theta)
		}
		if len(fit.Dims) > 0 {
			fit.Slope = metrics.FitThroughOrigin(fit.Dims, fit.BestTheta)
		}
		fits = append(fits, fit)
		fmt.Fprintf(out, "%-9s Θ* ≈ %.3g · d   (points:", p.Name, fit.Slope)
		for i := range fit.Dims {
			fmt.Fprintf(out, " d=%.0f→Θ*=%.3f", fit.Dims[i], fit.BestTheta[i])
		}
		fmt.Fprintf(out, ")\n")
	}
	return fits
}
