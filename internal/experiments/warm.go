package experiments

import (
	"fmt"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// cellWarm is one grid cell's warm-start context: the snapshot store to
// consult and publish through, the cell's registry spec (whose
// trajectory-determining fields key the prefix addresses), the
// publication cadence and the sweep's counters.
type cellWarm struct {
	store *runstore.Store
	spec  runstore.Spec
	every int
	stats *SweepStats
}

// warmCell returns the warm-start context for one grid cell, or nil when
// warm starts are off or no store is attached — runWarm degrades to
// core.MustRun on nil.
func (o Options) warmCell(spec runstore.Spec) *cellWarm {
	if !o.Warm || o.Store == nil {
		return nil
	}
	return &cellWarm{store: o.Store, spec: spec, every: o.WarmEvery, stats: o.Stats}
}

// runWarm is core.MustRun with prefix-keyed snapshot reuse (WarmStart).
// A restore or session error panics, matching MustRun's contract: the
// blob was CRC-verified and its spec re-hashed, so a restore failure is
// a shape bug, not data rot.
func runWarm(cfg core.Config, strat core.Strategy, warm *cellWarm) core.Result {
	if warm == nil {
		return core.MustRun(cfg, strat)
	}
	sess, err := core.NewSession(nil, cfg, strat)
	if err != nil {
		panic(err)
	}
	restored, err := WarmStart(sess, strat, warm.store, warm.spec, warm.every)
	if err != nil {
		panic(err)
	}
	if restored > 0 && warm.stats != nil {
		warm.stats.SnapshotHits.Add(1)
		warm.stats.StepsSaved.Add(int64(restored))
	}
	res, err := sess.Run()
	if err != nil {
		panic(err)
	}
	return res
}

// WarmStart wires a fresh session into the trajectory-prefix snapshot
// store (DESIGN.md §10). When the strategy shares a prefix family, the
// session first restores the longest stored prefix it can prove it
// would have produced itself (sharer.AcceptPrefix over the published
// guard), then publishes its own pre-first-sync prefixes every `every`
// steps (0 selects the session's evaluation cadence) for sibling runs.
// It returns how many steps were restored. The run's result stays
// bit-identical to a cold run's: restores are gated on the exact
// complement of the strategy's synchronization predicate, and snapshot
// store failures only cost reuse, never correctness — only a stored
// prefix that fails to restore is an error. A strategy without a
// prefix family makes the call a no-op.
func WarmStart(sess *core.Session, strat core.Strategy, store *runstore.Store, spec runstore.Spec, every int) (restored int, err error) {
	sharer, ok := strat.(core.PrefixSharer)
	if !ok {
		return 0, nil
	}
	cfg := sess.Config()
	prefix := spec.Prefix(sharer.PrefixFamily())

	// baseGuard carries the restored manifest's guard forward: the
	// session never re-observes the restored steps' statistics, so its
	// own running maximum restarts low and republished prefixes must
	// take the max.
	var baseGuard float64
	rsp := obs.StartRegion("warmstart.restore", "runstore")
	blob, m, found, err := store.BestSnapshot(prefix, cfg.MaxSteps, sharer.AcceptPrefix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warmstart: snapshot store: %v\n", err)
	}
	if found {
		snap, err := checkpoint.Unmarshal(blob)
		if err == nil {
			err = sess.Restore(snap)
		}
		if err != nil {
			return 0, fmt.Errorf("warmstart: restoring prefix %s@%d: %w", m.Hash, m.Steps, err)
		}
		baseGuard, restored = m.Guard, m.Steps
	}
	if rsp.Active() {
		rsp.EndArgs("restored_steps", restored, "hit", found)
	}

	if every <= 0 {
		every = cfg.EvalEvery
	}
	return restored, sess.PublishPrefixes(every, func(steps int, snap *checkpoint.Snapshot) {
		guard := sharer.PrefixGuard()
		if baseGuard > guard {
			guard = baseGuard
		}
		blob, err := checkpoint.Marshal(snap)
		if err == nil {
			err = store.PutSnapshot(prefix, steps, guard, blob)
		}
		if err != nil {
			// Publication failures cost siblings a warm start, nothing else.
			fmt.Fprintf(os.Stderr, "warmstart: snapshot publish: %v\n", err)
		}
	})
}

// ThetaSweep ("thetasweep") is the warm-start showcase grid: every FDA
// variant across the model's Θ grid at fixed K, with all cells of one
// variant sharing a single trajectory seed. Θ only decides when the
// first synchronization fires, so with Options.Warm each cell serves
// its siblings trajectory-prefix snapshots and the sweep's wall clock
// collapses toward one trajectory per variant plus divergent tails —
// the grid the benchmark's sweep_store workload runs cold, warm and
// cached (experiments.cell_*_ms).
func ThetaSweep(o Options) []Record {
	lw := newLazyWorkload("lenet5s", o.Seed)
	// The grid extends past the paper's ThetaGrid into the late-sync
	// regime: the silent prefix ahead of the first synchronization grows
	// roughly linearly in Θ (≈14 steps at the paper grid's top for
	// LinearFDA, ≈190 — the whole run — for OracleFDA at 8×), and warm
	// starts can only ever reuse that prefix. Small-Θ cells sync within
	// a handful of steps and would dilute the showcase to noise.
	top := lw.spec.ThetaGrid[len(lw.spec.ThetaGrid)-1]
	thetas := []float64{top, 2 * top, 4 * top, 8 * top}
	if o.Scale == Tiny {
		thetas = thetas[1:]
	}
	const fixedK = 5
	targets := []float64{0.93}

	type cell struct {
		strat string
		theta float64
		seed  uint64
	}
	var cells []cell
	seed := o.Seed + 5000
	for _, strat := range []string{"LinearFDA", "SketchFDA", "OracleFDA"} {
		// One trajectory seed for the whole Θ series: that is what makes
		// the cells prefix-siblings rather than independent trajectories.
		seed++
		for _, th := range thetas {
			cells = append(cells, cell{strat, th, seed})
		}
	}
	specs := make([]runstore.Spec, len(cells))
	for i, c := range cells {
		specs[i] = o.cellSpec("thetasweep", "lenet5s", c.strat, c.theta, fixedK, "iid", targets, c.seed)
	}
	recs := flatten(runGrid(o, specs, func(i int) []Record {
		c := cells[i]
		return runToTargetsWarm("thetasweep", lw.get(), c.strat, c.theta, fixedK,
			data.IID(), targets, c.seed, o.warmCell(specs[i]))
	}))
	printRecords(o.out(), fmt.Sprintf("thetasweep — %s: cost vs Θ (K=%d, shared trajectory seeds)",
		lw.spec.PaperModel, fixedK), recs)
	return recs
}
