package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
)

// asyncRun is everything one asynchronous run makes observable: its
// Result, the per-worker local step counts, the virtual clock at the end,
// the run's error and the events it emitted.
type asyncRun struct {
	res       Result
	perWorker []int
	virtual   float64
	err       error
	events    []Event
}

// asyncDigest hashes an asyncRun: every Result field, every history
// point, the per-worker steps, the virtual clock's bits and the whole
// Step/Sync/Eval/Done stream. Two VirtualSec fields stay out on purpose:
// Result.VirtualSec, because the clock is hashed once through virtual,
// and Point.VirtualSec, which the coordinator loop never filled in.
func asyncDigest(r asyncRun) string {
	h := sha256.New()
	writeAsyncResult(h, "result", r.res)
	fmt.Fprintf(h, "workers %v virtual %x err %v\n", r.perWorker, math.Float64bits(r.virtual), r.err)
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
		want        string
	}{
		{name: "linear/1", seed: 1, speeds: uneven, want: "81da141bf9c17700"},
		{name: "linear/2", seed: 2, speeds: uneven, want: "590e1a00023e0ee8"},
		{name: "linear/3", seed: 3, speeds: uneven, want: "07a4a5b4ef3cd7e7"},
		{name: "sketch/1", seed: 1, sketch: true, speeds: uneven, want: "c39473576590e922"},
		{name: "sketch/2", seed: 2, sketch: true, speeds: uneven, want: "5f1768d06e5b3f80"},
		{name: "sketch/3", seed: 3, sketch: true, speeds: uneven, want: "542ff68c6bd71d73"},
		{name: "linear/equal", seed: 4, want: "6a6c19ac6b967a1a"},
		{name: "linear/inexact", seed: 6, speeds: []float64{1, 0.7, 1.3, 0.3, 0.9}, want: "c389d44edfc8c6d2"},
		{name: "linear/cancelled", seed: 5, speeds: uneven, cancelAfter: 137, want: "2c4d755e1f4564be"},
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
			if got := asyncDigest(run); got != c.want {
				t.Errorf("digest %s, want %s (%v, workers %v, virtual %v)", got, c.want, run.res, run.perWorker, run.virtual)
			}
		})
	}
}
