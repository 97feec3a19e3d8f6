package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
)

// prefixSnap is one published trajectory-prefix snapshot plus the guard
// the publisher reported at publication time.
type prefixSnap struct {
	steps int
	guard float64
	blob  []byte
}

// publishPrefixes runs cfg under mk()'s strategy with the prefix hook
// armed at the given cadence and returns everything it published.
func publishPrefixes(t *testing.T, cfg Config, mk func() Strategy, every int) (Strategy, []prefixSnap) {
	t.Helper()
	strat := mk()
	sess, err := NewSession(nil, cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	sharer, ok := strat.(PrefixSharer)
	if !ok {
		t.Fatalf("%s does not implement PrefixSharer", strat.Name())
	}
	var published []prefixSnap
	if err := sess.PublishPrefixes(every, func(steps int, snap *checkpoint.Snapshot) {
		blob, err := checkpoint.Marshal(snap)
		if err != nil {
			t.Fatalf("marshal prefix snapshot: %v", err)
		}
		published = append(published, prefixSnap{steps, sharer.PrefixGuard(), blob})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	return strat, published
}

// warmStartParity pins the tentpole invariant: a consumer cell that
// restores the longest admissible prefix published by a sibling ends
// bit-identical to its own cold run. pubCfg and conCfg differ at most
// in parallelism knobs (which the engine guarantees cannot change the
// bytes); mkPub and mkCon differ only in sync-time parameters within
// one prefix family.
func warmStartParity(t *testing.T, pubCfg, conCfg Config, mkPub, mkCon func() Strategy, every int) {
	t.Helper()
	pubStrat, published := publishPrefixes(t, pubCfg, mkPub, every)
	if len(published) == 0 {
		t.Fatalf("publisher %s produced no prefix snapshots", pubStrat.Name())
	}

	// Cold reference.
	want := MustRun(conCfg, mkCon())

	// Warm consumer: restore the longest admissible prefix, run the tail.
	conStrat := mkCon()
	con, err := NewSession(nil, conCfg, conStrat)
	if err != nil {
		t.Fatal(err)
	}
	sharerP := pubStrat.(PrefixSharer)
	sharerC := conStrat.(PrefixSharer)
	if pf, cf := sharerP.PrefixFamily(), sharerC.PrefixFamily(); pf != cf {
		t.Fatalf("prefix families diverge: publisher %q, consumer %q", pf, cf)
	}
	best := -1
	for i, ps := range published {
		if sharerC.AcceptPrefix(ps.steps, ps.guard) && (best < 0 || ps.steps > published[best].steps) {
			best = i
		}
	}
	if best < 0 {
		t.Fatalf("no admissible prefix among %d published by %s", len(published), pubStrat.Name())
	}
	snap, err := checkpoint.Unmarshal(published[best].blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := con.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := con.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm run diverged from cold after restoring %d steps:\ncold: %+v\nwarm: %+v",
			published[best].steps, want, got)
	}
}

func prefixTestConfig() Config {
	cfg := testConfig(31)
	cfg.MaxSteps = 60
	cfg.EvalEvery = 15
	return cfg
}

// TestSessionWarmStartParity covers every prefix-sharing strategy
// family: each FDA variant across Θ, and the silent (schedule-driven)
// family across τ, round lengths and even across strategies. Thresholds
// are chosen against the measured statistic profile at this config so
// the publisher synchronizes mid-run (ending its prefix stream) while
// the consumer accepts a strict prefix of it.
func TestSessionWarmStartParity(t *testing.T) {
	cfg := prefixTestConfig()
	cases := []struct {
		name         string
		mkPub, mkCon func() Strategy
	}{
		// Θ ascending: the consumer accepts everything the publisher
		// stayed silent through.
		{"LinearFDA-theta-asc",
			func() Strategy { return NewLinearFDA(0.4) },
			func() Strategy { return NewLinearFDA(1.0) }},
		// Θ descending: the consumer's smaller Θ rejects late prefixes via
		// the guard and restores an earlier one (exercised below too).
		{"LinearFDA-theta-desc",
			func() Strategy { return NewLinearFDA(1.0) },
			func() Strategy { return NewLinearFDA(0.3) }},
		{"SketchFDA-theta",
			func() Strategy { return NewSketchFDA(0.13) },
			func() Strategy { return NewSketchFDA(0.4) }},
		{"OracleFDA-theta",
			func() Strategy { return NewOracleFDA(0.045) },
			func() Strategy { return NewOracleFDA(0.12) }},
		// The silent family: τ → τ′ and cross-strategy shares. At this
		// config a FedOpt round (E = 1) is 15 steps.
		{"LocalSGD-tau",
			func() Strategy { return NewLocalSGD(20) },
			func() Strategy { return NewLocalSGD(30) }},
		{"LocalSGD-to-FedAvgM",
			func() Strategy { return NewLocalSGD(20) },
			func() Strategy { return NewFedAvgMFor(cfg) }},
		{"FedAdam-to-LocalSGD",
			func() Strategy { return NewFedAdamFor(cfg) },
			func() Strategy { return NewLocalSGD(25) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warmStartParity(t, cfg, cfg, tc.mkPub, tc.mkCon, 5)
		})
	}
}

// TestSessionWarmStartCrossParallel restores a prefix published by a
// 4-way-parallel publisher into a sequential consumer — parallelism
// must not leak into snapshots any more than into results.
func TestSessionWarmStartCrossParallel(t *testing.T) {
	pubCfg := prefixTestConfig()
	pubCfg.Parallelism = 4
	conCfg := prefixTestConfig()
	conCfg.Parallelism = 1
	warmStartParity(t, pubCfg, conCfg,
		func() Strategy { return NewLinearFDA(0.4) },
		func() Strategy { return NewLinearFDA(1.0) }, 5)
}

// TestWarmStartGuardMatchesFirstSync pins the guard-acceptance rule to
// ground truth: a consumer accepts exactly the prefixes that end
// strictly before its own cold first synchronization.
func TestWarmStartGuardMatchesFirstSync(t *testing.T) {
	cfg := prefixTestConfig()
	// A never-syncing publisher records the family's full Θ-independent
	// statistic profile.
	_, published := publishPrefixes(t, cfg, func() Strategy { return NewLinearFDA(math.Inf(1)) }, 1)
	if len(published) != cfg.MaxSteps {
		t.Fatalf("published %d snapshots, want %d", len(published), cfg.MaxSteps)
	}

	const theta = 0.3
	firstSync := 0
	sess, err := NewSession(nil, cfg, NewLinearFDA(theta))
	if err != nil {
		t.Fatal(err)
	}
	sess.Subscribe(func(e Event) {
		if se, ok := e.(SyncEvent); ok && firstSync == 0 {
			firstSync = se.Step
		}
	})
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if firstSync == 0 {
		t.Fatal("consumer never synchronized; pick a smaller Θ")
	}

	consumer := NewLinearFDA(theta)
	consumer.Init(&Env{}) // families/acceptance only need Theta for LinearFDA
	for _, ps := range published {
		wantAccept := ps.steps < firstSync
		if got := consumer.AcceptPrefix(ps.steps, ps.guard); got != wantAccept {
			t.Fatalf("AcceptPrefix(steps=%d, guard=%g) = %v, want %v (first sync at %d)",
				ps.steps, ps.guard, got, wantAccept, firstSync)
		}
	}
}

// TestPublishPrefixesLifecycle pins the hook mechanics: publication
// stops permanently at the first synchronization, never fires at a
// terminal step, and arming is refused on bad arguments or after a
// synchronization.
func TestPublishPrefixesLifecycle(t *testing.T) {
	cfg := prefixTestConfig()
	strat, published := publishPrefixes(t, cfg, func() Strategy { return NewLinearFDA(0.4) }, 5)

	// The publisher synchronized mid-run (that is what ends the stream);
	// every published step must predate the first sync.
	sharer := strat.(PrefixSharer)
	for _, ps := range published {
		if !sharer.AcceptPrefix(ps.steps, ps.guard) {
			t.Fatalf("publisher's own guard at step %d (%g) exceeds its Θ — published inside a sync",
				ps.steps, ps.guard)
		}
	}
	last := published[len(published)-1].steps
	if last >= cfg.MaxSteps {
		t.Fatalf("publication continued to the end (%d); expected the first sync to disarm it", last)
	}

	// Synchronous syncs at step 1: nothing is ever published, and it does
	// not even implement PrefixSharer.
	syncStrat := NewSynchronous()
	sess, err := NewSession(nil, cfg, syncStrat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Strategy(syncStrat).(PrefixSharer); ok {
		t.Fatal("Synchronous must not be a PrefixSharer")
	}
	fired := 0
	if err := sess.PublishPrefixes(1, func(int, *checkpoint.Snapshot) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("Synchronous published %d prefixes", fired)
	}

	// Bad arguments are refused.
	sess2, _ := NewSession(nil, cfg, NewLocalSGD(10))
	if err := sess2.PublishPrefixes(0, func(int, *checkpoint.Snapshot) {}); err == nil {
		t.Fatal("cadence 0 accepted")
	}
	if err := sess2.PublishPrefixes(5, nil); err == nil {
		t.Fatal("nil sink accepted")
	}

	// A terminal step is never published: with cadence 1 and an early
	// target, the stopping step itself must be absent from the stream.
	tCfg := prefixTestConfig()
	tCfg.TargetAccuracy = 0.05 // trivially reached at the first eval
	tStrat := NewLocalSGD(1000)
	tSess, err := NewSession(nil, tCfg, tStrat)
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	if err := tSess.PublishPrefixes(1, func(n int, _ *checkpoint.Snapshot) { steps = append(steps, n) }); err != nil {
		t.Fatal(err)
	}
	res, err := tSess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatalf("target not reached (acc %v); test premise broken", res.FinalTestAcc)
	}
	for _, n := range steps {
		if n >= res.Steps {
			t.Fatalf("published at step %d, at/after the stopping step %d", n, res.Steps)
		}
	}
}
