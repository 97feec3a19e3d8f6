// Package experiments contains one runner per table and figure of the
// paper's evaluation (Table 2, Figures 3–13). Each runner executes the
// corresponding workload sweep on the scaled model zoo, prints the rows /
// series the paper reports, and returns structured records so the
// benchmark harness and EXPERIMENTS.md generation can post-process them.
//
// Runners accept a Scale: Tiny grids fit the benchmark budget of a
// single-core CI machine, Quick is the CLI default, and Full approaches
// the paper's grid sizes (hours of CPU time). The grids differ only in
// how many (K, Θ) combinations are explored; the workloads, strategies
// and accuracy-target methodology are identical across scales.
package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/runstore"
)

// Scale selects the sweep density.
type Scale int

const (
	// Tiny fits the benchmark budget (one combination per cell).
	Tiny Scale = iota
	// Quick is the CLI default (small grids, minutes of CPU).
	Quick
	// Full approaches the paper's grids (hours of CPU).
	Full
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Quick:
		return "quick"
	default:
		return "full"
	}
}

// Options configures a runner.
type Options struct {
	Scale Scale
	Seed  uint64
	// Out receives human-readable tables; nil discards them.
	Out io.Writer
	// Ctx, when non-nil, makes the sweep cancellable: once it is done no
	// new grid cell dispatches (cells already computing finish and
	// persist to Store), the runner aborts, and Run returns the context's
	// error. With a Store, resubmitting the same sweep resumes from the
	// cells that completed.
	Ctx context.Context
	// Events, when non-nil, receives one CellEvent per completed grid
	// cell (live from the worker pool for computed cells — the sink must
	// be goroutine-safe — and in grid order for cache hits).
	Events func(CellEvent)
	// Jobs caps how many independent sweep cells (training runs) execute
	// concurrently. 0 (the zero value) and 1 run the grid one cell at a
	// time; positive values are taken literally; negative values select
	// runtime.GOMAXPROCS. It is a cap, not an allocation: the cell pool
	// and every cell's own worker fan-out draw their helpers from the
	// process's one core budget (internal/par), so cores the cells leave
	// idle — a grid smaller than Jobs, or a grid's tail once the helpers
	// running its other cells finish — go to the next fan-outs of the
	// cells still running. Each cell owns its seed-derived RNGs and
	// meter, and records are collected in grid order, so the output is
	// identical at every setting.
	Jobs int
	// Store, when non-nil, is the run registry consulted before each grid
	// cell dispatches: cells already present load from disk, only missing
	// ones execute, and fresh results persist before the runner returns —
	// so repeated or interrupted sweeps resume from cache. Cached and
	// computed records are byte-identical by the determinism contract.
	Store *runstore.Store
	// Stats, when non-nil, accumulates cell-scheduling counters
	// (total/cached/executed) across the runner's grids.
	Stats *SweepStats
	// Warm enables prefix-keyed snapshot reuse (DESIGN.md §10): before a
	// miss cell trains from step 0, the planner restores the longest
	// stored trajectory prefix compatible with the cell and runs only the
	// divergent tail, publishing prefixes for sibling cells as it goes.
	// Requires Store (ignored without one); records are bit-identical
	// either way — warm starts change wall clock, never bytes.
	Warm bool
	// WarmEvery is the prefix publication cadence in steps; 0 selects
	// each cell's evaluation cadence.
	WarmEvery int
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// Record is one training run's outcome at one accuracy target — one point
// of a paper figure.
type Record struct {
	Figure   string
	Model    string
	Het      string
	Strategy string
	K        int
	Theta    float64 // 0 for non-FDA strategies
	Target   float64
	Steps    int
	CommGB   float64
	// ModelGB is the synchronization-only traffic (excludes monitoring
	// state), the quantity that dominates CommGB at the paper's model
	// sizes.
	ModelGB   float64
	SyncCount int
	Acc       float64
	Reached   bool
}

// strategyFor builds a strategy from the shared name index
// (dist.StrategyFor); the runners' strategy names are literals, so an
// unknown one is a bug. None of the figures uses a τ-scheduled
// baseline.
func strategyFor(name string, theta float64, cfg core.Config) core.Strategy {
	s, err := dist.StrategyFor(name, theta, 0, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// isFDA reports whether the strategy consumes a Θ threshold.
func isFDA(name string) bool {
	switch name {
	case "LinearFDA", "SketchFDA", "OracleFDA":
		return true
	}
	return false
}

// workload bundles a spec with its generated datasets so repeated runs
// share the (deterministic) data.
type workload struct {
	spec  models.Spec
	train *data.Dataset
	test  *data.Dataset
}

func loadWorkload(modelName string, seed uint64) workload {
	spec, err := models.ByName(modelName)
	if err != nil {
		panic(err)
	}
	train, test := models.DatasetFor(spec, seed)
	return workload{spec: spec, train: train, test: test}
}

// baseConfig builds the shared run configuration for a workload. Its
// Parallelism is AutoParallelism, a cap: each call's width is what the
// core budget grants then, and results are bit-identical at any width.
func (w workload) baseConfig(k int, seed uint64, maxSteps, evalEvery int, target float64, het data.Heterogeneity) core.Config {
	return core.Config{
		K: k, BatchSize: 32, Seed: seed,
		Model: w.spec.Build, Optimizer: w.spec.Optimizer,
		Train: w.train, Test: w.test,
		Het:            het,
		MaxSteps:       maxSteps,
		EvalEvery:      evalEvery,
		TargetAccuracy: target,
		Parallelism:    core.AutoParallelism,
	}
}

// modelBudget returns (maxSteps, evalEvery) per zoo model, sized so every
// strategy can reach the experiment targets with headroom.
func modelBudget(name string) (maxSteps, evalEvery int) {
	switch name {
	case "lenet5s":
		return 700, 10
	case "vgg16s":
		return 500, 10
	case "densenet121s":
		return 600, 20
	case "densenet201s":
		return 700, 20
	default:
		return 600, 20
	}
}

// runToTargets executes one training run to the highest target and
// emits one Record per requested target by locating the first history
// point at or above it. This mirrors the paper's "training run until a
// final epoch achieving a specific testing accuracy" while re-using one
// trajectory for nested targets. A non-nil warm consults the snapshot
// store for the longest reusable trajectory prefix and publishes
// prefixes for sibling cells (warm.go); the records are bit-identical
// to a cold run's by the prefix-sharing safety argument (DESIGN.md §10).
func runToTargets(fig string, w workload, strategyName string, theta float64,
	k int, het data.Heterogeneity, targets []float64, seed uint64, warm *cellWarm) []Record {

	maxT := targets[0]
	for _, t := range targets[1:] {
		if t > maxT {
			maxT = t
		}
	}
	maxSteps, evalEvery := modelBudget(w.spec.Name)
	cfg := w.baseConfig(k, seed, maxSteps, evalEvery, maxT, het)
	strat := strategyFor(strategyName, theta, cfg)
	res := runWarm(cfg, strat, warm)

	recs := make([]Record, 0, len(targets))
	for _, target := range targets {
		rec := Record{
			Figure: fig, Model: w.spec.Name, Het: het.String(),
			Strategy: strategyName, K: k, Target: target,
			Acc: res.FinalTestAcc,
		}
		if isFDA(strategyName) {
			rec.Theta = theta
		}
		perSync := 0.0
		if res.SyncCount > 0 {
			perSync = float64(res.ModelBytes) / float64(res.SyncCount)
		}
		found := false
		for _, p := range res.History {
			if p.TestAcc >= target {
				rec.Steps = p.Step
				rec.CommGB = float64(p.CommBytes) / 1e9
				rec.ModelGB = perSync * float64(p.SyncCount) / 1e9
				rec.SyncCount = p.SyncCount
				rec.Reached = true
				found = true
				break
			}
		}
		if !found {
			rec.Steps = res.Steps
			rec.CommGB = res.CommGB()
			rec.ModelGB = float64(res.ModelBytes) / 1e9
			rec.SyncCount = res.SyncCount
			rec.Reached = false
		}
		recs = append(recs, rec)
	}
	return recs
}

// printRecords renders records as the figure's data table.
func printRecords(out io.Writer, title string, recs []Record) {
	fmt.Fprintf(out, "\n== %s ==\n", title)
	fmt.Fprintf(out, "%-12s %-18s %-11s %3s %8s %7s %6s %10s %6s %8s\n",
		"strategy", "het", "model", "K", "theta", "target", "steps", "comm(GB)", "syncs", "reached")
	for _, r := range recs {
		theta := "-"
		if r.Theta > 0 {
			theta = fmt.Sprintf("%.3f", r.Theta)
		}
		fmt.Fprintf(out, "%-12s %-18s %-11s %3d %8s %7.3f %6d %10.5f %6d %8v\n",
			r.Strategy, r.Het, r.Model, r.K, theta, r.Target, r.Steps, r.CommGB, r.SyncCount, r.Reached)
	}
}

// summarize prints per-strategy medians, the quantities the paper's KDE
// clouds visualize (communication on x, in-parallel steps on y).
func summarize(out io.Writer, recs []Record) {
	type agg struct {
		comm, steps []float64
	}
	byStrategy := map[string]*agg{}
	order := []string{}
	for _, r := range recs {
		if !r.Reached {
			continue
		}
		a, ok := byStrategy[r.Strategy]
		if !ok {
			a = &agg{}
			byStrategy[r.Strategy] = a
			order = append(order, r.Strategy)
		}
		a.comm = append(a.comm, r.CommGB)
		a.steps = append(a.steps, float64(r.Steps))
	}
	fmt.Fprintf(out, "-- KDE-cloud centers (medians over reached runs) --\n")
	for _, name := range order {
		a := byStrategy[name]
		fmt.Fprintf(out, "%-12s comm=%.5f GB  steps=%.0f  (n=%d)\n",
			name, median(a.comm), median(a.steps), len(a.comm))
	}
}

func median(xs []float64) float64 { return metrics.Quantile(xs, 0.5) }
