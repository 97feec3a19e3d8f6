package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/runstore"
)

// NetRecord is one cell of the network-scenario sweep: a strategy
// trained to a target on the simulated-network fabric under one
// deployment scenario, reporting the estimated wall-clock
// time-to-accuracy alongside the usual byte accounting. This is the
// experiment the fabric refactor unlocks — the paper's figures count
// bytes; the netsweep prices those bytes (and the strategy's extra
// steps) on concrete heterogeneous networks.
type NetRecord struct {
	Scenario   string  `json:"scenario"`
	Model      string  `json:"model"`
	Strategy   string  `json:"strategy"`
	Theta      float64 `json:"theta,omitempty"`
	K          int     `json:"k"`
	Target     float64 `json:"target"`
	Steps      int     `json:"steps"`
	SyncCount  int     `json:"syncs"`
	CommGB     float64 `json:"comm_gb"`
	VirtualSec float64 `json:"virtual_sec"`
	Acc        float64 `json:"acc"`
	Reached    bool    `json:"reached"`
}

// netStrategy is one entry of the sweep's strategy axis.
type netStrategy struct {
	Name  string
	Theta float64
}

// netStrategies returns the sweep's strategy axis per scale.
func netStrategies(scale Scale) []netStrategy {
	base := []netStrategy{
		{"LinearFDA", 0.1},
		{"Synchronous", 0},
	}
	if scale >= Quick {
		base = append(base, netStrategy{"SketchFDA", 0.1}, netStrategy{"LocalSGD", 0})
	}
	return base
}

// NetSweep runs every canned network scenario × strategy cell on the
// simulated fabric and reports estimated time-to-accuracy. Cells
// persist through the run registry like every other sweep (the
// scenario lands in Spec.Extra), so interrupted or repeated sweeps
// resume from cache; the virtual clock is deterministic, so cached and
// fresh cells carry identical times.
func NetSweep(o Options) []NetRecord {
	const modelName = "lenet5s"
	scenarios := []comm.Scenario{comm.ScenarioLAN, comm.ScenarioFedWAN, comm.ScenarioStraggler}
	strategies := netStrategies(o.Scale)

	k := 3
	maxSteps, evalEvery, target := 150, 10, 0.90
	if o.Scale >= Quick {
		k = 5
		maxSteps, evalEvery = modelBudget(modelName)
		target = 0.93
	}

	out := o.out()
	fmt.Fprintf(out, "\n== netsweep — estimated time-to-accuracy per network scenario (simulated fabric) ==\n")

	lw := newLazyWorkload(modelName, o.Seed)
	type cell struct {
		scen  comm.Scenario
		strat string
		theta float64
	}
	var cells []cell
	for _, scen := range scenarios {
		for _, st := range strategies {
			cells = append(cells, cell{scen, st.Name, st.Theta})
		}
	}
	specs := make([]runstore.Spec, len(cells))
	for i, c := range cells {
		sp := o.cellSpec("netsweep", modelName, c.strat, c.theta, k, "iid",
			[]float64{target}, o.Seed+57)
		sp.Extra = map[string]string{"scenario": c.scen.Name}
		specs[i] = sp
	}

	results := runGrid(o, specs, func(i int) []NetRecord {
		c := cells[i]
		cfg := lw.get().baseConfig(k, o.Seed+57, maxSteps, evalEvery, target, data.IID())
		cfg.Fabric = comm.NewSimFabric(k, comm.DefaultCostModel(), c.scen)
		var strat core.Strategy
		switch c.strat {
		case "LocalSGD":
			strat = core.NewLocalSGD(10)
		default:
			strat = strategyFor(c.strat, c.theta, cfg)
		}
		res := core.MustRun(cfg, strat)
		rec := NetRecord{
			Scenario: c.scen.Name, Model: modelName, Strategy: c.strat,
			K: k, Target: target,
			Steps: res.Steps, SyncCount: res.SyncCount,
			CommGB: res.CommGB(), VirtualSec: res.VirtualSec,
			Acc: res.FinalTestAcc, Reached: res.ReachedTarget,
		}
		if isFDA(c.strat) {
			rec.Theta = c.theta
		}
		// Time-to-accuracy: the virtual clock at the first history point
		// reaching the target (the run continues to MaxSteps only when
		// the target was never reached).
		for _, p := range res.History {
			if res.ReachedTarget && p.TestAcc >= target {
				rec.VirtualSec = p.VirtualSec
				rec.Steps = p.Step
				rec.SyncCount = p.SyncCount
				rec.CommGB = float64(p.CommBytes) / 1e9
				break
			}
		}
		return []NetRecord{rec}
	})

	var recs []NetRecord
	for _, rs := range results {
		recs = append(recs, rs...)
	}
	fmt.Fprintf(out, "%-11s %-12s %8s %6s %6s %10s %12s %8s\n",
		"scenario", "strategy", "theta", "steps", "syncs", "comm(GB)", "est.time(s)", "reached")
	for _, r := range recs {
		theta := "-"
		if r.Theta > 0 {
			theta = fmt.Sprintf("%.3f", r.Theta)
		}
		fmt.Fprintf(out, "%-11s %-12s %8s %6d %6d %10.5f %12.2f %8v\n",
			r.Scenario, r.Strategy, theta, r.Steps, r.SyncCount, r.CommGB, r.VirtualSec, r.Reached)
	}
	return recs
}
