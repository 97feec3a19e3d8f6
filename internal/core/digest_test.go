package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/data"
)

// asyncRun is everything one run makes observable: its Result, the
// per-worker local step counts, the virtual clock at the end, the run's
// error, the events it emitted and, when recorded, the final global
// model.
type asyncRun struct {
	res       Result
	perWorker []int
	virtual   float64
	err       error
	events    []Event
	global    []float64
}

// asyncDigest hashes an asyncRun: every Result field, every history
// point, the per-worker steps, the virtual clock's bits, the global
// model's bits when recorded, and the whole Step/Sync/Eval/Done stream.
// Two VirtualSec fields stay out on purpose: Result.VirtualSec, because
// the clock is hashed once through virtual, and Point.VirtualSec, which
// the coordinator loop never filled in.
func asyncDigest(r asyncRun) string {
	h := sha256.New()
	writeAsyncResult(h, "result", r.res)
	fmt.Fprintf(h, "workers %v virtual %x err %v\n", r.perWorker, math.Float64bits(r.virtual), r.err)
	if r.global != nil {
		fmt.Fprintf(h, "global %d", len(r.global))
		for _, w := range r.global {
			fmt.Fprintf(h, " %x", math.Float64bits(w))
		}
		fmt.Fprintln(h)
	}
	for _, e := range r.events {
		switch ev := e.(type) {
		case StepEvent:
			fmt.Fprintf(h, "step %d %d %x\n", ev.Step, ev.Worker, math.Float64bits(ev.VirtualTime))
		case SyncEvent:
			fmt.Fprintf(h, "sync %d %d %s %d %d\n", ev.Step, ev.SyncCount, ev.Trigger, ev.SyncBytes, ev.TotalBytes)
		case EvalEvent:
			writeAsyncPoint(h, "eval", ev.Point)
		case DoneEvent:
			fmt.Fprintf(h, "done %q\n", ev.Err)
			writeAsyncResult(h, "done", ev.Result)
		default:
			fmt.Fprintf(h, "unknown %T\n", e)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeAsyncResult(h hash.Hash, tag string, r Result) {
	fmt.Fprintf(h, "%s %s %d %x %d %d %d %d %x %t %d\n", tag, r.Strategy, r.Steps,
		math.Float64bits(r.Epochs), r.CommBytes, r.StateBytes, r.ModelBytes, r.SyncCount,
		math.Float64bits(r.FinalTestAcc), r.ReachedTarget, len(r.History))
	for _, p := range r.History {
		writeAsyncPoint(h, tag+".point", p)
	}
}

func writeAsyncPoint(h hash.Hash, tag string, p Point) {
	fmt.Fprintf(h, "%s %d %x %x %x %d %d\n", tag, p.Step, math.Float64bits(p.Epoch),
		math.Float64bits(p.TestAcc), math.Float64bits(p.TrainAcc), p.CommBytes, p.SyncCount)
}

// pinnedDigests is every run output this package pins bit for bit,
// keyed by the test that checks it. The digests hold across builds
// (default and purego) and at any parallelism; one that moves means the
// numbers moved, which a run registry keyed by runstore.SpecVersion
// must not silently serve.
var pinnedDigests = map[string]string{
	// Captured from the original asynchronous coordinator loop.
	"TestAsyncOutputDigest/linear/1":         "81da141bf9c17700",
	"TestAsyncOutputDigest/linear/2":         "590e1a00023e0ee8",
	"TestAsyncOutputDigest/linear/3":         "07a4a5b4ef3cd7e7",
	"TestAsyncOutputDigest/sketch/1":         "c39473576590e922",
	"TestAsyncOutputDigest/sketch/2":         "5f1768d06e5b3f80",
	"TestAsyncOutputDigest/sketch/3":         "542ff68c6bd71d73",
	"TestAsyncOutputDigest/linear/equal":     "6a6c19ac6b967a1a",
	"TestAsyncOutputDigest/linear/inexact":   "c389d44edfc8c6d2",
	"TestAsyncOutputDigest/linear/cancelled": "2c4d755e1f4564be",

	// Every parityStrategies family on testConfig(3), 30 steps.
	"TestStrategyDigestsMatchPinnedBuild/SketchFDA/iid":      "2b78a5981e91c825",
	"TestStrategyDigestsMatchPinnedBuild/SketchFDA/label0":   "512a0bc921e92fce",
	"TestStrategyDigestsMatchPinnedBuild/SketchFDA/pct60":    "91214076876d80b1",
	"TestStrategyDigestsMatchPinnedBuild/LinearFDA/iid":      "3bae104957a82371",
	"TestStrategyDigestsMatchPinnedBuild/LinearFDA/label0":   "f480f80a5763204d",
	"TestStrategyDigestsMatchPinnedBuild/LinearFDA/pct60":    "72b9efbf829ee465",
	"TestStrategyDigestsMatchPinnedBuild/OracleFDA/iid":      "3cf4131ca672120a",
	"TestStrategyDigestsMatchPinnedBuild/OracleFDA/label0":   "0b5de29fae81ce49",
	"TestStrategyDigestsMatchPinnedBuild/OracleFDA/pct60":    "7b32677c804b41af",
	"TestStrategyDigestsMatchPinnedBuild/Synchronous/iid":    "a0211ac6675c254d",
	"TestStrategyDigestsMatchPinnedBuild/Synchronous/label0": "a3650b135f8c19bc",
	"TestStrategyDigestsMatchPinnedBuild/Synchronous/pct60":  "b48719e10f038244",
	"TestStrategyDigestsMatchPinnedBuild/LocalSGD/iid":       "04a2d271750005ee",
	"TestStrategyDigestsMatchPinnedBuild/LocalSGD/label0":    "f91c9d4fb2ac157d",
	"TestStrategyDigestsMatchPinnedBuild/LocalSGD/pct60":     "b40c6b34633cd0c2",
	"TestStrategyDigestsMatchPinnedBuild/FedAvgM/iid":        "12589be027fdc862",
	"TestStrategyDigestsMatchPinnedBuild/FedAvgM/label0":     "89eb76b181de17de",
	"TestStrategyDigestsMatchPinnedBuild/FedAvgM/pct60":      "0e6ebaaf233351ea",
	"TestStrategyDigestsMatchPinnedBuild/FedAdam/iid":        "e17da79ad5031ce6",
	"TestStrategyDigestsMatchPinnedBuild/FedAdam/label0":     "d887ece0899cf928",
	"TestStrategyDigestsMatchPinnedBuild/FedAdam/pct60":      "57e4d84f8062b34f",
	"TestStrategyDigestsMatchPinnedBuild/AsyncFDA/iid":       "79e50f7a580bbcf7",
	"TestStrategyDigestsMatchPinnedBuild/AsyncFDA/label0":    "195cd95bb037cbbe",
	"TestStrategyDigestsMatchPinnedBuild/AsyncFDA/pct60":     "9a9a8054cdec992c",

	// testConfig(3), iid, 400 steps, captured before Adam skipped its
	// division by 1 − β1ᵗ once that rounds to 1.
	"TestStrategyDigestsMatchPinnedBuild/LinearFDA/long": "f2e9c56bfdb4ecda",
	"TestStrategyDigestsMatchPinnedBuild/AsyncFDA/long":  "49b0cc0022ae0017",
}

// checkPinned compares the calling (sub)test's digest with its pin.
func checkPinned(t *testing.T, got string, detail any) {
	t.Helper()
	if want := pinnedDigests[t.Name()]; got != want {
		t.Errorf("digest %s, want %s (%v).\nThis build's numbers differ from the pinned build's. If the change is meant to move them, "+
			"bump runstore.SpecVersion and these pinned digests together; otherwise the change broke bit-for-bit reproducibility.",
			got, want, detail)
	}
}

// TestAsyncOutputDigest pins asynchronous FDA's complete output, bit for
// bit, across seeds, both estimators, uneven and equal speeds and a
// cancelled partial run. The digests were captured from the original
// coordinator loop; the run itself goes through runAsyncCase, so the
// constants outlive any change to how async is driven.
func TestAsyncOutputDigest(t *testing.T) {
	uneven := []float64{1, 1, 1, 0.5, 0.25}
	cases := []struct {
		name        string
		seed        uint64
		sketch      bool
		speeds      []float64
		cancelAfter int // cancel at this StepEvent; 0 runs to the end
	}{
		{name: "linear/1", seed: 1, speeds: uneven},
		{name: "linear/2", seed: 2, speeds: uneven},
		{name: "linear/3", seed: 3, speeds: uneven},
		{name: "sketch/1", seed: 1, sketch: true, speeds: uneven},
		{name: "sketch/2", seed: 2, sketch: true, speeds: uneven},
		{name: "sketch/3", seed: 3, sketch: true, speeds: uneven},
		{name: "linear/equal", seed: 4},
		{name: "linear/inexact", seed: 6, speeds: []float64{1, 0.7, 1.3, 0.3, 0.9}},
		{name: "linear/cancelled", seed: 5, speeds: uneven, cancelAfter: 137},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(c.seed)
			// 45 steps at an evaluation every 10: the run ends between
			// evaluation points, so no final evaluation is forced.
			cfg.MaxSteps = 45
			cfg.EvalEvery = 10
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var run asyncRun
			stepEvents := 0
			sink := func(e Event) {
				run.events = append(run.events, e)
				if _, ok := e.(StepEvent); ok {
					if stepEvents++; stepEvents == c.cancelAfter {
						cancel()
					}
				}
			}
			run.res, run.perWorker, run.virtual, run.err = runAsyncCase(ctx, cfg, 0.03, c.sketch, c.speeds, sink)
			if (run.err != nil) != (c.cancelAfter > 0) {
				t.Fatalf("run error %v with cancelAfter %d", run.err, c.cancelAfter)
			}
			checkPinned(t, asyncDigest(run), run.res)
		})
	}
}

// TestStrategyDigestsMatchPinnedBuild pins every strategy family's
// complete output — the final global model's bits, every Result counter
// and the event stream — on an IID, a label-skew and a sorted-percent
// partition, so a change to a strategy, an optimizer or a partitioner
// that moves a single bit fails here.
func TestStrategyDigestsMatchPinnedBuild(t *testing.T) {
	partitions := map[string]data.Heterogeneity{
		"iid":    data.IID(),
		"label0": data.NonIIDLabel(0),
		"pct60":  data.NonIIDPercent(60),
	}
	base := testConfig(3)
	base.MaxSteps = 30
	base.EvalEvery = 10
	strategies := parityStrategies(base)
	for name, mk := range strategies {
		for het, h := range partitions {
			t.Run(name+"/"+het, func(t *testing.T) {
				cfg := base
				cfg.Het = h
				checkStrategyDigest(t, cfg, mk())
			})
		}
	}
	// The long cells run past step 356, where Adam's 1 − β1ᵗ rounds to
	// exactly 1.
	long := testConfig(3)
	long.MaxSteps = 400
	long.EvalEvery = 100
	for _, name := range []string{"LinearFDA", "AsyncFDA"} {
		t.Run(name+"/long", func(t *testing.T) { checkStrategyDigest(t, long, strategies[name]()) })
	}
}

// checkStrategyDigest runs strat on cfg and checks the run's digest,
// final global model included, against the calling test's pin.
func checkStrategyDigest(t *testing.T, cfg Config, strat Strategy) {
	t.Helper()
	sess, err := NewSession(context.Background(), cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	var run asyncRun
	sess.Subscribe(func(e Event) { run.events = append(run.events, e) })
	run.res, run.err = sess.Run()
	run.perWorker, run.virtual = run.res.StepsPerWorker, run.res.VirtualSec
	run.global = make([]float64, sess.NumParams())
	sess.GlobalModel(run.global)
	checkPinned(t, asyncDigest(run), run.res)
}
