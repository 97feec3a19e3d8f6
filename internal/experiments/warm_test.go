package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/runstore"
)

// TestSweepWarmStartParityAndHits is the warm-start acceptance test at
// the sweep level: with Options.Warm, the Θ panel's shared-seed cells
// must restore each other's trajectory prefixes (hits > 0, steps
// saved > 0) while the records and rendered output stay byte-identical
// to a storeless cold sweep.
func TestSweepWarmStartParityAndHits(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	spec := sweepSpec{figure: "wtest-sweep", model: "lenet5s", target: 0.5,
		strategies: []string{"LinearFDA"}}
	run := func(o Options) ([]Record, string, *SweepStats) {
		var b strings.Builder
		stats := &SweepStats{}
		o.Out, o.Stats = &b, stats
		return sweepFigure(spec, o), b.String(), stats
	}

	baseRecs, baseOut, _ := run(Options{Scale: Tiny, Seed: 4})

	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Sequential on purpose: in grid order every Θ-panel cell publishes
	// before its sibling dispatches, so the hit counts are deterministic.
	warmRecs, warmOut, warmStats := run(Options{
		Scale: Tiny, Seed: 4, Store: st, Warm: true, WarmEvery: 1,
	})
	if !reflect.DeepEqual(baseRecs, warmRecs) {
		t.Fatalf("warm sweep records diverged from cold:\ncold: %+v\nwarm: %+v", baseRecs, warmRecs)
	}
	if baseOut != warmOut {
		t.Fatalf("warm sweep output diverged:\n--- cold ---\n%s\n--- warm ---\n%s", baseOut, warmOut)
	}
	// The Θ panel holds two shared-seed series (LinearFDA, SketchFDA) of
	// two cells each: the second cell of each series must warm-start.
	if hits := warmStats.SnapshotHits.Load(); hits < 2 {
		t.Fatalf("snapshot hits = %d, want >= 2", hits)
	}
	if saved := warmStats.StepsSaved.Load(); saved <= 0 {
		t.Fatalf("steps saved = %d, want > 0", saved)
	}
	if n := st.SnapshotCount(); n == 0 {
		t.Fatal("warm sweep published no snapshots")
	}

	// A repeat of the same sweep is served by the run registry outright —
	// warm starts never interfere with whole-cell caching.
	againRecs, _, againStats := run(Options{
		Scale: Tiny, Seed: 4, Store: st, Warm: true, WarmEvery: 1,
	})
	if got := againStats.Executed.Load(); got != 0 {
		t.Fatalf("cached rerun executed %d cells", got)
	}
	if !reflect.DeepEqual(baseRecs, againRecs) {
		t.Fatal("cached rerun records diverged")
	}
}

// TestThetaSweepWarmMatchesCold pins the showcase runner itself: records
// from a warm store-backed ThetaSweep equal a storeless cold run's, and
// the grid's MapResult-style counters surface through SweepStats.
func TestThetaSweepWarmMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	run := func(st *runstore.Store, warm bool) ([]Record, *SweepStats) {
		stats := &SweepStats{}
		recs := ThetaSweep(Options{Scale: Tiny, Seed: 6, Store: st, Warm: warm,
			WarmEvery: 1, Stats: stats})
		return recs, stats
	}
	coldRecs, _ := run(nil, false)

	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warmRecs, warmStats := run(st, true)
	if !reflect.DeepEqual(coldRecs, warmRecs) {
		t.Fatalf("thetasweep warm records diverged:\ncold: %+v\nwarm: %+v", coldRecs, warmRecs)
	}
	if hits := warmStats.SnapshotHits.Load(); hits == 0 {
		t.Fatal("thetasweep warm run restored no prefixes")
	}
}

// TestWarmStartCadenceSingleDefault pins the publish-cadence fix: the
// two warm-start entry points — WarmStart called directly with no
// cadence (what fdarun -store does) and runWarm (what sweep cells
// do) — publish snapshots at the same step set for a config that
// leaves EvalEvery to core's default, that set is the multiples of the
// session's effective EvalEvery (the one place the default is written),
// and both runs stay bit-identical to a cold run.
func TestWarmStartCadenceSingleDefault(t *testing.T) {
	w := loadWorkload("lenet5s", 3)
	cfg := w.baseConfig(3, 3, 70, 0, 0, data.IID()) // EvalEvery left to core
	// Θ far above any drift the run reaches: the whole run is one silent
	// prefix, so every cadence point publishes.
	const theta = 1e6
	mk := func() core.Strategy { return strategyFor("LinearFDA", theta, cfg) }
	spec := runstore.Spec{Experiment: "cadence", Model: "lenet5s", Strategy: "LinearFDA", Theta: theta, K: 3, Seed: 3}
	cold := core.MustRun(cfg, mk())

	steps := func(st *runstore.Store) []int {
		ms, err := st.Snapshots()
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for _, m := range ms {
			out = append(out, m.Steps)
		}
		return out
	}
	open := func() *runstore.Store {
		st, err := runstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	direct := open()
	strat := mk()
	sess, err := core.NewSession(nil, cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := WarmStart(sess, strat, direct, spec, 0); err != nil || restored != 0 {
		t.Fatalf("WarmStart on an empty store: restored %d, err %v", restored, err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, res) {
		t.Fatal("direct warm run diverged from the cold run")
	}

	cell := open()
	if got := runWarm(cfg, mk(), &cellWarm{store: cell, spec: spec}); !reflect.DeepEqual(cold, got) {
		t.Fatal("runWarm run diverged from the cold run")
	}

	every := sess.Config().EvalEvery
	var want []int
	for s := every; s <= cfg.MaxSteps; s += every {
		want = append(want, s)
	}
	if got := steps(direct); !reflect.DeepEqual(got, want) {
		t.Fatalf("direct path published at %v, want the EvalEvery=%d multiples %v", got, every, want)
	}
	if got := steps(cell); !reflect.DeepEqual(got, want) {
		t.Fatalf("runWarm path published at %v, want %v", got, want)
	}

	// A second direct run restores the longest prefix the first one
	// published and still lands on the cold run's bits.
	strat = mk()
	if sess, err = core.NewSession(nil, cfg, strat); err != nil {
		t.Fatal(err)
	}
	restored, err := WarmStart(sess, strat, direct, spec, 0)
	if err != nil || restored != want[len(want)-1] {
		t.Fatalf("restored %d steps (err %v), want %d", restored, err, want[len(want)-1])
	}
	if res, err = sess.Run(); err != nil || !reflect.DeepEqual(cold, res) {
		t.Fatalf("restored run diverged from the cold run (err %v)", err)
	}
}
