package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/opt"
)

// TestSessionStepMatchesRun drives a session manually and checks the
// final Result is deeply equal to the batch Run at the same config.
func TestSessionStepMatchesRun(t *testing.T) {
	cfg := testConfig(21)
	cfg.MaxSteps = 60
	cfg.EvalEvery = 20
	want := MustRun(cfg, NewLinearFDA(0.1))

	sess, err := NewSession(context.Background(), cfg, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		more, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		steps++
	}
	if !sess.Done() {
		t.Fatal("session not done after Step returned false")
	}
	if got := sess.Result(); !reflect.DeepEqual(want, got) {
		t.Fatalf("session result diverged from Run:\nrun:     %v\nsession: %v", want, got)
	}
	if steps+1 != want.Steps {
		t.Fatalf("stepped %d times for a %d-step run", steps+1, want.Steps)
	}
}

// TestSessionEventOrdering checks the documented per-step event order
// (step, then sync, then eval, done last) and that event counts and
// payloads agree with the final Result.
func TestSessionEventOrdering(t *testing.T) {
	cfg := testConfig(22)
	cfg.MaxSteps = 40
	cfg.EvalEvery = 10

	sess, err := NewSession(context.Background(), cfg, NewLocalSGD(7))
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	sess.Subscribe(func(e Event) { events = append(events, e) })
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}

	var stepCount, syncCount, evalCount, doneCount int
	var syncBytes int64
	lastStep := 0
	for i, e := range events {
		switch ev := e.(type) {
		case StepEvent:
			if ev.Step != lastStep+1 {
				t.Fatalf("event %d: step %d after step %d", i, ev.Step, lastStep)
			}
			if ev.Worker != -1 {
				t.Fatalf("lock-step StepEvent carries worker %d", ev.Worker)
			}
			lastStep = ev.Step
			stepCount++
		case SyncEvent:
			if ev.Step != lastStep {
				t.Fatalf("event %d: sync at step %d, current step %d", i, ev.Step, lastStep)
			}
			if ev.Trigger != "LocalSGD(τ=7)" {
				t.Fatalf("sync trigger %q", ev.Trigger)
			}
			if ev.SyncBytes <= 0 {
				t.Fatalf("sync reports %d bytes", ev.SyncBytes)
			}
			syncBytes += ev.SyncBytes
			syncCount++
		case EvalEvent:
			if ev.Point.Step != lastStep {
				t.Fatalf("event %d: eval at step %d, current step %d", i, ev.Point.Step, lastStep)
			}
			evalCount++
		case DoneEvent:
			if i != len(events)-1 {
				t.Fatalf("DoneEvent at %d of %d", i, len(events))
			}
			if !reflect.DeepEqual(ev.Result, res) {
				t.Fatalf("DoneEvent result differs from Run result")
			}
			doneCount++
		}
	}
	if stepCount != res.Steps {
		t.Fatalf("%d StepEvents for %d steps", stepCount, res.Steps)
	}
	if syncCount != res.SyncCount {
		t.Fatalf("%d SyncEvents for %d syncs", syncCount, res.SyncCount)
	}
	if syncBytes != res.ModelBytes {
		t.Fatalf("SyncEvent bytes sum %d, model traffic %d", syncBytes, res.ModelBytes)
	}
	if evalCount != len(res.History) {
		t.Fatalf("%d EvalEvents for %d history points", evalCount, len(res.History))
	}
	if doneCount != 1 {
		t.Fatalf("%d DoneEvents", doneCount)
	}
}

// TestSessionCancellation: a cancelled context stops Step between steps
// with the context's error; the session is not done (it is resumable)
// and no DoneEvent fires.
func TestSessionCancellation(t *testing.T) {
	cfg := testConfig(23)
	cfg.MaxSteps = 100
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := NewSession(ctx, cfg, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	sess.Subscribe(func(e Event) {
		if _, ok := e.(DoneEvent); ok {
			done = true
		}
	})
	for i := 0; i < 10; i++ {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if _, err := sess.Step(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step after cancel: %v", err)
	}
	if sess.Done() {
		t.Fatal("cancelled session reports done")
	}
	if done {
		t.Fatal("cancelled session emitted DoneEvent")
	}
	if sess.StepCount() != 10 {
		t.Fatalf("cancelled at step %d, want 10", sess.StepCount())
	}
}

// TestRunContextCancelled: the batch wrapper surfaces cancellation with
// the partial result.
func TestRunContextCancelled(t *testing.T) {
	cfg := testConfig(24)
	cfg.MaxSteps = 100
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, cfg, NewSynchronous())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Steps != 0 {
		t.Fatalf("cancelled-before-start run took %d steps", res.Steps)
	}
}

// sessionResume runs cfg+strategy uninterrupted, then again cancelled at
// snapStep — snapshot, serialize through the checkpoint codec, restore
// into a fresh session — and requires the resumed result to be deeply
// equal (every float64 bit) to the uninterrupted one.
func sessionResume(t *testing.T, cfg Config, mk func() Strategy, snapStep int) {
	t.Helper()
	want := MustRun(cfg, mk())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, err := NewSession(ctx, cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	first.Subscribe(func(e Event) {
		if _, ok := e.(StepEvent); ok {
			if steps++; steps == snapStep {
				cancel()
			}
		}
	})
	if _, err := first.Run(); !errors.Is(err, context.Canceled) || first.StepCount() != snapStep {
		t.Fatalf("run stopped at step %d with %v, want a cancellation at %d", first.StepCount(), err, snapStep)
	}
	snap, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Serialize through the binary codec so the test covers the wire
	// format, not just the in-memory struct.
	raw, _ := checkpoint.Marshal(snap)
	loaded, err := checkpoint.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewSession(context.Background(), cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	if resumed.StepCount() != snapStep {
		t.Fatalf("restored session at step %d, want %d", resumed.StepCount(), snapStep)
	}
	// The restored session checkpoints to the same bytes: every section
	// the snapshot carries was restored, not just the ones the
	// continuation happens to read.
	again, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rawAgain, _ := checkpoint.Marshal(again); !bytes.Equal(raw, rawAgain) {
		t.Fatal("a restored session's snapshot differs from the one it was restored from")
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed run diverged from uninterrupted run:\nwant: %v\ngot:  %v", want, got)
	}
}

// TestSessionSnapshotResumeExact is the resume-parity contract for every
// strategy family with cross-step state (and the stateless ones, whose
// snapshots carry only the shared training state).
func TestSessionSnapshotResumeExact(t *testing.T) {
	base := testConfig(31)
	base.MaxSteps = 60
	base.EvalEvery = 15
	strategies := map[string]func() Strategy{
		"LinearFDA":   func() Strategy { return NewLinearFDA(0.1) },
		"SketchFDA":   func() Strategy { return NewSketchFDA(0.1) },
		"OracleFDA":   func() Strategy { return NewOracleFDA(0.1) },
		"Synchronous": func() Strategy { return NewSynchronous() },
		"LocalSGD":    func() Strategy { return NewLocalSGD(7) },
		"FedAvgM":     func() Strategy { return NewFedAvgMFor(base) },
		"FedAdam":     func() Strategy { return NewFedAdamFor(base) },
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			// Step 37 is mid-round for every schedule above and past the
			// second synchronization for the FDA variants (ξ is live).
			sessionResume(t, base, mk, 37)
		})
	}
	// An asynchronous step is one worker's. Each snapshot is taken one
	// step before a synchronization at Θ = 0.03 (linear: steps 25 and 93;
	// sketch: 59 and 137), so the decision right after the restore reads
	// the heap, ξ and four workers' stale states from the checkpoint.
	for name, c := range map[string]struct {
		mk   func() Strategy
		snap int
	}{
		"AsyncFDA":       {func() Strategy { return NewAsyncFDA(NewLinearFDA(0.03)) }, 92},
		"AsyncSketchFDA": {func() Strategy { return NewAsyncFDA(NewSketchFDA(0.03)) }, 136},
	} {
		t.Run(name, func(t *testing.T) { sessionResume(t, base, c.mk, c.snap) })
	}
}

// TestSessionSnapshotResumeParallel: snapshots taken from a parallel
// session restore into a sequential one (and vice versa) — snapshot
// state is parallelism-independent, like results.
func TestSessionSnapshotResumeParallel(t *testing.T) {
	cfg := testConfig(32)
	cfg.MaxSteps = 45
	cfg.EvalEvery = 15
	want := MustRun(cfg, NewLinearFDA(0.1))

	parCfg := cfg
	parCfg.Parallelism = 4
	first, err := NewSession(context.Background(), parCfg, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for first.StepCount() < 20 {
		if _, err := first.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSession(context.Background(), cfg, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel-snapshot resume diverged:\nwant: %v\ngot:  %v", want, got)
	}
}

// TestSessionRestoreRejectsMismatch: restoring a snapshot into a session
// of a different shape fails loudly instead of corrupting state.
func TestSessionRestoreRejectsMismatch(t *testing.T) {
	cfg := testConfig(33)
	cfg.MaxSteps = 20
	sess, err := NewSession(context.Background(), cfg, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.K = 3
	mismatch, err := NewSession(context.Background(), other, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := mismatch.Restore(snap); err == nil {
		t.Fatal("K-mismatched snapshot accepted")
	}

	stepped, err := NewSession(context.Background(), cfg, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stepped.Step(); err != nil {
		t.Fatal(err)
	}
	if err := stepped.Restore(snap); err == nil {
		t.Fatal("Restore accepted on an already-stepped session")
	}
}

// TestSessionRestoreRejectsOptimizerState: a snapshot whose optimizer
// vectors are cut short, or which carries one of Adam's two moments
// without the other, is refused at Restore with the worker and vector
// named — not restored, to panic in the next Step's update sweep.
func TestSessionRestoreRejectsOptimizerState(t *testing.T) {
	cases := []struct {
		name    string
		opt     opt.Factory
		corrupt func(sections map[string][]float64)
		want    string
	}{
		{"adam/short", opt.NewAdam(1e-3), func(s map[string][]float64) { s["w0.opt.v0"] = s["w0.opt.v0"][:3] }, "w0.opt.v0"},
		{"adam/one-moment", opt.NewAdam(1e-3), func(s map[string][]float64) { delete(s, "w2.opt.v1") }, "worker 2"},
		{"momentum/short", func() opt.Optimizer { return &opt.Momentum{LR: 0.05, Mu: 0.9} }, func(s map[string][]float64) { s["w1.opt.v0"] = s["w1.opt.v0"][:3] }, "w1.opt.v0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(1)
			cfg.Optimizer = c.opt
			sess, err := NewSession(context.Background(), cfg, NewLinearFDA(0.1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := sess.Step(); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := sess.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(snap.Sections)
			resumed, err := NewSession(context.Background(), cfg, NewLinearFDA(0.1))
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(snap); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Restore of a corrupted optimizer state returned %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// TestSessionCancelledPartialTotals: a cancelled Run returns a partial
// Result with coherent cost totals (epochs, traffic, sync count), not
// zeros.
func TestSessionCancelledPartialTotals(t *testing.T) {
	cfg := testConfig(34)
	cfg.MaxSteps = 100
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := NewSession(ctx, cfg, NewSynchronous())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	sess.Subscribe(func(e Event) {
		if _, ok := e.(StepEvent); ok {
			if n++; n == 12 {
				cancel()
			}
		}
	})
	res, err := sess.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if res.Steps != 12 || res.SyncCount != 12 || res.ModelBytes == 0 || res.Epochs == 0 {
		t.Fatalf("partial result incoherent: %v", res)
	}
}

// TestSessionRestorePastBudgetTerminates: a snapshot at or beyond the
// config's MaxSteps finishes on the next Step instead of training
// unboundedly.
func TestSessionRestorePastBudgetTerminates(t *testing.T) {
	cfg := testConfig(35)
	cfg.MaxSteps = 20
	cfg.EvalEvery = 10
	sess, err := NewSession(context.Background(), cfg, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	short := cfg
	short.MaxSteps = 10
	resumed, err := NewSession(context.Background(), short, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Done() || res.Steps != 20 {
		t.Fatalf("past-budget restore: done=%v steps=%d", resumed.Done(), res.Steps)
	}
}

// TestConfigValidateFieldErrors: Validate reports every invalid field in
// one structured error.
func TestConfigValidateFieldErrors(t *testing.T) {
	err := Config{K: -1, BatchSize: 0, TargetAccuracy: -0.5}.Validate()
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	var cerr *ConfigError
	if !errors.As(err, &cerr) {
		t.Fatalf("want *ConfigError, got %T", err)
	}
	fields := map[string]bool{}
	for _, f := range cerr.Fields {
		fields[f.Field] = true
	}
	for _, want := range []string{"K", "BatchSize", "Model", "Optimizer", "Train", "Test", "TargetAccuracy"} {
		if !fields[want] {
			t.Fatalf("missing field error for %s in %v", want, cerr)
		}
	}
	if !strings.Contains(err.Error(), "TargetAccuracy") {
		t.Fatalf("error text %q", err.Error())
	}

	if err := testConfig(1).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestAsyncEventsAndCancellation: an asynchronous session emits the
// shared event vocabulary — one StepEvent per worker step, naming the
// worker and its completion time — and honors its context.
func TestAsyncEventsAndCancellation(t *testing.T) {
	cfg := testConfig(41)
	cfg.MaxSteps = 30
	cfg.EvalEvery = 10
	speeds := []float64{1, 1, 1, 0.5, 0.25}

	var steps, syncs, evals, dones int
	want, perWorker, _, err := runAsyncCase(context.Background(), cfg, 0.1, false, speeds, func(e Event) {
		switch ev := e.(type) {
		case StepEvent:
			if ev.Worker < 0 || ev.VirtualTime <= 0 {
				t.Fatalf("async StepEvent %+v names no worker or time", ev)
			}
			steps++
		case SyncEvent:
			syncs++
		case EvalEvent:
			evals++
		case DoneEvent:
			dones++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range perWorker {
		total += s
	}
	if steps != total || total != cfg.MaxSteps*cfg.K {
		t.Fatalf("%d StepEvents for %d local steps", steps, total)
	}
	if syncs != want.SyncCount || evals != len(want.History) || dones != 1 {
		t.Fatalf("events %d/%d/%d for syncs=%d evals=%d", syncs, evals, dones, want.SyncCount, len(want.History))
	}

	// Parity: subscribing changes nothing.
	plain, _, _, err := runAsyncCase(context.Background(), cfg, 0.1, false, speeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, plain) {
		t.Fatalf("subscribed run diverged from the plain one")
	}

	// Cancellation mid-run: stop after 7 local steps.
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, partial, _, err := runAsyncCase(ctx, cfg, 0.1, false, speeds, func(e Event) {
		if _, ok := e.(StepEvent); ok {
			if n++; n == 7 {
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled async run: %v", err)
	}
	got := 0
	for _, s := range partial {
		got += s
	}
	if got != 7 {
		t.Fatalf("cancelled after %d local steps, want 7", got)
	}
}
