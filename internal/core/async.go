package core

import (
	"context"
	"fmt"

	"repro/internal/sketch"
	"repro/internal/tensor"
)

// This file implements the asynchronous FDA operation sketched in §3.3:
// one worker-node acts as a coordinator, aggregating local states and
// deciding on synchronization every time a state arrives, based on the
// most recent states from all workers. The paper notes the primary
// benefit is tolerance to stragglers, so the simulation models per-worker
// speeds explicitly and advances a virtual clock with an event queue.

// AsyncConfig extends Config for the asynchronous runner.
type AsyncConfig struct {
	Config
	// Speeds holds one relative step rate per worker (1.0 = nominal).
	// A worker with speed 0.5 takes twice as long per local step. Nil
	// means all workers run at speed 1.
	Speeds []float64
	// Theta is the variance threshold Θ.
	Theta float64
	// UseSketch selects the AMS-sketch estimator; false uses the linear
	// two-scalar estimator with the drift heuristic ξ.
	UseSketch bool
	// MaxVirtualTime optionally caps the simulated clock (0 = no cap).
	MaxVirtualTime float64
}

// AsyncResult augments Result with per-worker progress and the virtual
// clock, the quantities that show straggler tolerance.
type AsyncResult struct {
	Result
	// StepsPerWorker records each worker's local step count at the end;
	// under synchronous operation these would all equal Result.Steps.
	StepsPerWorker []int
	// VirtualTime is the simulated clock at the end of the run.
	VirtualTime float64
}

// stepEvent is one worker's next step completion in virtual time.
type stepEvent struct {
	at     float64
	worker int
}

// eventQueue is a value-typed binary min-heap of step events. It replaces
// container/heap so the per-event push/pop cycle boxes no interfaces and
// allocates nothing once the backing array has reached cluster size.
type eventQueue []stepEvent

// Less orders events by virtual time, breaking ties by worker id so the
// scheduling order of simultaneous completions (equal speeds are the
// common case) is specified rather than an artifact of heap internals.
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].worker < q[j].worker
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// push inserts ev, sifting it up to its heap position.
func (q *eventQueue) push(ev stepEvent) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			break
		}
		h.Swap(i, parent)
		i = parent
	}
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() stepEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.Less(l, smallest) {
			smallest = l
		}
		if r < n && h.Less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.Swap(i, smallest)
		i = smallest
	}
}

// RunAsync executes asynchronous FDA. Each worker trains at its own speed;
// after every local step it sends its small state to the coordinator
// (charged one-way), which re-evaluates H over the latest states from all
// workers and, when H > Θ, performs a model synchronization (gather +
// broadcast, charged as 2d per worker under the naive model or the ring
// cost otherwise).
func RunAsync(ac AsyncConfig) (AsyncResult, error) {
	return RunAsyncContext(context.Background(), ac, nil)
}

// RunAsyncContext is RunAsync on the session event spine: the
// coordinator loop emits the same typed events a lock-step Session does
// (StepEvent per completed local step — with the moving worker and the
// virtual clock — SyncEvent per coordinator-led synchronization,
// EvalEvent per evaluation, DoneEvent at the end) and honors ctx:
// cancellation stops the virtual clock between events and returns the
// partial result with ctx's error. A nil sink discards events.
func RunAsyncContext(ctx context.Context, ac AsyncConfig, sink EventSink) (AsyncResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	emit := sink
	if emit == nil {
		emit = func(Event) {}
	}
	cfg := ac.Config.withDefaults()
	if err := cfg.Validate(); err != nil {
		return AsyncResult{}, err
	}
	if ac.Theta < 0 {
		return AsyncResult{}, fmt.Errorf("core: negative Θ %v", ac.Theta)
	}
	speeds := ac.Speeds
	if speeds == nil {
		speeds = make([]float64, cfg.K)
		for i := range speeds {
			speeds[i] = 1
		}
	}
	if len(speeds) != cfg.K {
		return AsyncResult{}, fmt.Errorf("core: %d speeds for %d workers", len(speeds), cfg.K)
	}
	for i, s := range speeds {
		if s <= 0 {
			return AsyncResult{}, fmt.Errorf("core: worker %d speed %v", i, s)
		}
	}

	ranks := make([]int, cfg.K)
	for k := range ranks {
		ranks[k] = k
	}
	w0, workers, evalNet := buildReplicas(cfg, ranks)
	d := len(w0)
	cluster := newAsyncCluster(cfg, d)

	// Estimator state held by the coordinator.
	var sk *sketch.Sketcher
	var skBuf *sketch.Sketch
	stateDim := 2
	epsilon := 0.06
	if ac.UseSketch {
		sk = sketch.NewSketcher(5, 250, cfg.Seed^0xa57c)
		sk.Precompute(d)
		skBuf = sk.NewSketch()
		stateDim = 1 + 5*250
	}
	latest := make([][]float64, cfg.K) // coordinator's latest state per worker
	for i := range latest {
		latest[i] = make([]float64, stateDim)
	}
	xi := make([]float64, d)
	wPrev := []float64(nil)

	computeState := func(w *Worker, dst []float64) {
		u := w.Drift(w0)
		dst[0] = tensor.SquaredNorm(u)
		if ac.UseSketch {
			sk.SketchVec(skBuf, u)
			copy(dst[1:], skBuf.Data)
		} else {
			dst[1] = tensor.Dot(xi, u)
		}
	}
	meanState := make([]float64, stateDim)
	var m2Scratch []float64
	if ac.UseSketch {
		m2Scratch = make([]float64, sk.L())
	}
	estimate := func() float64 {
		mean := meanState
		tensor.Mean(mean, latest...)
		if ac.UseSketch {
			copy(skBuf.Data, mean[1:])
			return mean[0] - sketch.M2Into(skBuf, m2Scratch)/(1+epsilon)
		}
		return mean[0] - mean[1]*mean[1]
	}

	globalParams := make([]float64, d)
	views := make([][]float64, cfg.K)
	for i, w := range workers {
		views[i] = w.Net.Params()
	}

	res := AsyncResult{StepsPerWorker: make([]int, cfg.K)}
	res.Strategy = "AsyncFDA"
	if ac.UseSketch {
		res.Strategy = "AsyncSketchFDA"
	}

	q := make(eventQueue, 0, cfg.K)
	for k := 0; k < cfg.K; k++ {
		q.push(stepEvent{at: 1 / speeds[k], worker: k})
	}

	totalSteps := 0
	maxTotal := cfg.MaxSteps * cfg.K
	evalCounter := 0
	trainLen := float64(cfg.Train.Len())

	// finalize fills the run totals; shared by every exit path (step
	// budget, virtual-time cap, target reached, cancellation) so a
	// cancelled run still reports a coherent partial result.
	finalize := func() {
		res.Steps = maxInts(res.StepsPerWorker)
		res.Epochs = float64(totalSteps) * float64(cfg.BatchSize) / trainLen
		res.CommBytes = cluster.meter.TotalBytes()
		res.StateBytes = cluster.meter.BytesFor("state")
		res.ModelBytes = cluster.meter.BytesFor("model")
	}

	for totalSteps < maxTotal {
		if err := ctx.Err(); err != nil {
			finalize()
			return res, err
		}
		ev := q.pop()
		if ac.MaxVirtualTime > 0 && ev.at > ac.MaxVirtualTime {
			break
		}
		res.VirtualTime = ev.at
		w := workers[ev.worker]
		w.LocalStep(cfg.BatchSize)
		res.StepsPerWorker[ev.worker]++
		totalSteps++
		emit(StepEvent{Step: totalSteps / cfg.K, Worker: ev.worker, VirtualTime: ev.at})

		// Worker → coordinator state upload (one-way, small).
		computeState(w, latest[ev.worker])
		cluster.meterStateUpload(stateDim)

		if estimate() > ac.Theta {
			// Coordinator-led synchronization: gather all models, average,
			// broadcast. After it, every drift and state is zero.
			wPrev = w0
			tensor.Mean(globalParams, views...)
			for _, wk := range workers {
				wk.Net.SetParams(globalParams)
			}
			w0 = tensor.Clone(globalParams)
			prevModelBytes := cluster.meter.BytesFor("model")
			cluster.meterModelSync()
			res.SyncCount++
			emit(SyncEvent{
				Step:       totalSteps / cfg.K,
				SyncCount:  res.SyncCount,
				Trigger:    res.Strategy,
				SyncBytes:  cluster.meter.BytesFor("model") - prevModelBytes,
				TotalBytes: cluster.meter.TotalBytes(),
			})
			for i := range latest {
				tensor.Zero(latest[i])
			}
			if !ac.UseSketch && wPrev != nil {
				tensor.Sub(xi, w0, wPrev)
				if tensor.Normalize(xi) == 0 {
					tensor.Zero(xi)
				}
			}
		}

		evalCounter++
		if evalCounter%(cfg.EvalEvery*cfg.K) == 0 {
			tensor.Mean(globalParams, views...)
			evalNet.SetParams(globalParams)
			acc := evalNet.Accuracy(cfg.Test)
			p := Point{
				Step:      totalSteps / cfg.K,
				Epoch:     float64(totalSteps) * float64(cfg.BatchSize) / trainLen,
				TestAcc:   acc,
				CommBytes: cluster.meter.TotalBytes(),
				SyncCount: res.SyncCount,
			}
			res.History = append(res.History, p)
			res.FinalTestAcc = acc
			emit(EvalEvent{Point: p})
			if cfg.TargetAccuracy > 0 && acc >= cfg.TargetAccuracy {
				res.ReachedTarget = true
				break
			}
		}

		q.push(stepEvent{at: ev.at + 1/speeds[ev.worker], worker: ev.worker})
	}

	finalize()
	emit(DoneEvent{Result: res.Result})
	return res, nil
}

func maxInts(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
