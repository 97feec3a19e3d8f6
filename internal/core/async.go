package core

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// This file implements the asynchronous FDA operation sketched in §3.3:
// one worker-node acts as a coordinator, aggregating local states and
// deciding on synchronization every time a state arrives, based on the
// most recent states from all workers. The paper notes the primary
// benefit is tolerance to stragglers, so an asynchronous session steps
// worker by worker, in the order the fabric's virtual clock finishes
// their local steps.

// AsyncFDA is asynchronous FDA as a Session stepping mode. One Step is
// one event: the earliest pending state arrival at the coordinator on
// the fabric's virtual clock (ties to the lower worker id). The moving
// worker's state goes one-way to the coordinator, which evaluates H over
// the latest state of every worker and, when H > Θ, gathers the models,
// averages them and broadcasts the average; every state is then zero.
//
// The session needs a fabric that times each rank's steps and links — a
// comm.SimFabric. A worker's cycle is its local step
// (ComputeSecPerStep·ComputeMult and the straggler schedule) followed by
// its state upload over its own link; a synchronization is timed like a
// lock-step collective moving 2·d per worker, and every worker's pending
// step waits it out. comm.SpeedsScenario builds a fabric from relative
// speeds whose links take no time. With no Fabric configured every
// worker takes one virtual second per step and communication takes none.
// StepCount counts events, at most MaxSteps·K; evaluation runs every
// EvalEvery·K events; Result.StepsPerWorker holds each worker's local
// steps and Result.Steps their maximum.
type AsyncFDA struct {
	// inner is the wrapped *LinearFDA or *SketchFDA: SketchFDA's
	// per-worker body, or for LinearFDA the moving worker's watched local
	// step, computes the moving worker's state, its states are the
	// coordinator's latest state per worker, and its estimator is H.
	inner      Strategy
	fda        *fdaBase // inner's; nil when inner is not an FDA variant
	clock      rankClock
	queue      eventQueue
	global     []float64 // a synchronization's averaged model
	stateBytes int64     // one state upload's charged size
}

// rankClock is the fabric face an asynchronous session steps on.
type rankClock interface {
	comm.VirtualClocker
	comm.TransferTimer
	RankStepSec(rank, step int) float64
	RankSendSec(rank int, bytes int64) float64
}

// NewAsyncFDA wraps inner, which must be *LinearFDA or *SketchFDA, as
// asynchronous FDA. A SketchFDA whose dimensions and hash seed are left
// zero gets the coordinator's sketch: the paper's fixed l = 5, m = 250,
// ε = 0.06, hashed from the run's Config.Seed.
func NewAsyncFDA(inner Strategy) *AsyncFDA {
	a := &AsyncFDA{inner: inner}
	switch v := inner.(type) {
	case *LinearFDA:
		a.fda = &v.fdaBase
	case *SketchFDA:
		a.fda = &v.fdaBase
	}
	return a
}

// Name implements Strategy: AsyncFDA over LinearFDA, AsyncSketchFDA
// over SketchFDA.
func (a *AsyncFDA) Name() string {
	if _, ok := a.inner.(*LinearFDA); ok {
		return "AsyncFDA"
	}
	return "Async" + a.inner.Name()
}

func (a *AsyncFDA) validate() error {
	if a.fda == nil {
		return fmt.Errorf("core: asynchronous FDA wraps LinearFDA or SketchFDA, not %s", a.inner.Name())
	}
	return a.fda.validate()
}

// bind attaches the strategy to its session's fabric before Init. It is
// the one place a configuration is refused for asynchronous FDA: a
// fabric without per-rank step times, which includes TCP.
func (a *AsyncFDA) bind(cfg Config, fabric comm.Fabric) error {
	clock, ok := fabric.(rankClock)
	if !ok {
		return fmt.Errorf("core: asynchronous FDA needs a fabric that times each rank's steps (comm.SimFabric), not %T; "+
			"over TCP the order of its events would depend on network timing, so the run would not be bit-identical", fabric)
	}
	a.clock = clock
	if s, ok := a.inner.(*SketchFDA); ok {
		// The paper's width whatever the model (Init then derives
		// ε = 0.06). Init hashes with seed^0x5ce7c4, so this seeds the
		// coordinator's hash family with Seed^0xa57c.
		s.m, s.seed = 250, cfg.Seed^0xa57c^0x5ce7c4
	}
	return nil
}

// Init implements Strategy: the wrapped variant's Init, then every
// worker's first state arrival on the queue.
func (a *AsyncFDA) Init(env *Env) {
	a.inner.Init(env)
	a.global = make([]float64, env.D)
	a.stateBytes = int64(len(a.fda.states[0])) * int64(env.Fabric.Cost().BytesPerParam)
	a.queue = make(eventQueue, 0, len(env.Workers))
	for k := range env.Workers {
		a.queue.push(stepEvent{at: a.arrival(a.clock.VirtualTime(), k, 1), worker: k})
	}
}

// arrival is when worker k's state after its local step n reaches the
// coordinator, the step having started at sec: the step's compute time,
// then the upload over k's link. The worker starts its next step once
// its state has arrived.
func (a *AsyncFDA) arrival(sec float64, k, n int) float64 {
	return sec + a.clock.RankStepSec(k, n) + a.clock.RankSendSec(k, a.stateBytes)
}

// AfterLocalStep implements Strategy. An asynchronous session never
// calls it: it steps through Session.stepWorker and coordinate.
func (a *AsyncFDA) AfterLocalStep(*Env, int) {
	panic("core: AsyncFDA steps one worker at a time; run it through a Session")
}

// coordinate is the coordinator's reaction to worker k's local step:
// k's state (computed by the variant's body, or already by the step),
// its upload (one-way, charged as state traffic), H over the latest
// states, and a synchronization when H > Θ.
//
//fda:noalloc
func (a *AsyncFDA) coordinate(env *Env, k int) {
	b := a.fda
	if b.body != nil {
		b.body(k, env.Workers[k])
	}
	env.Fabric.Meter().Charge("state", a.stateBytes)
	tensor.Mean(b.meanSt, b.states...)
	h := b.estimate()
	b.observe(h)
	if h > b.Theta {
		a.sync(env)
	}
}

// sync is the coordinator-led synchronization: gather every model,
// average, broadcast (2·d per worker, charged as model traffic). Every
// worker takes part, so every pending arrival waits out its transfer
// time. After it every drift, and so every state, is zero.
func (a *AsyncFDA) sync(env *Env) {
	tensor.Mean(a.global, env.paramViews...)
	for _, w := range env.Workers {
		w.Net.SetParams(a.global)
	}
	env.advanceW0(a.global)
	env.SyncCount++
	perWorker := 2 * int64(env.D) * int64(env.Fabric.Cost().BytesPerParam)
	env.Fabric.Meter().Charge("model", perWorker*int64(len(env.Workers)))
	a.queue.delay(a.clock.TransferDone(perWorker))
	for _, st := range a.fda.states {
		tensor.Zero(st)
	}
	if a.fda.synced != nil {
		a.fda.synced()
	}
}

// stepWorker runs event t of an asynchronous session: the fabric clock
// jumps to the earliest arrival, that worker takes its local step, its
// next arrival is queued, and the coordinator reacts. It returns the
// step's event and when the coordinator started, or the worker's
// checkReport error, before the coordinator reads a stale state.
//
//fda:noalloc
func (s *Session) stepWorker(t int) (StepEvent, int64, error) {
	a := s.async
	ev := a.queue.pop()
	a.clock.SetVirtualTime(ev.at)
	s.env.Workers[ev.worker].LocalStep(s.cfg.BatchSize)
	if err := s.env.Workers[ev.worker].checkReport(); err != nil {
		return StepEvent{}, 0, err
	}
	n := s.res.StepsPerWorker[ev.worker] + 1
	s.res.StepsPerWorker[ev.worker] = n
	s.res.Steps = max(s.res.Steps, n)
	a.queue.push(stepEvent{at: a.arrival(ev.at, ev.worker, n+1), worker: ev.worker})
	coordStart := obs.Clock()
	a.coordinate(s.env, ev.worker)
	return StepEvent{Step: t / s.cfg.K, Worker: ev.worker, VirtualTime: ev.at}, coordStart, nil
}

// snapshotEvents adds an asynchronous session's pending arrivals (the
// heap array as it stands, so a restored queue pops in the same order),
// per-worker step counts and the coordinator's latest state per worker
// to snap.
func (s *Session) snapshotEvents(snap *checkpoint.Snapshot) {
	q := s.async.queue
	at := make([]float64, len(q))
	worker := make([]float64, len(q))
	for i, ev := range q {
		at[i], worker[i] = ev.at, float64(ev.worker)
	}
	snap.AddVec("async.heap.at", at)
	snap.AddVec("async.heap.worker", worker)
	for k, n := range s.res.StepsPerWorker {
		snap.AddU64(fmt.Sprintf("w%d.steps", k), uint64(n))
		snap.AddVec(fmt.Sprintf("w%d.state", k), s.async.fda.states[k])
	}
}

// restoreEvents is snapshotEvents' inverse.
func (s *Session) restoreEvents(snap *checkpoint.Snapshot) error {
	at, worker := snap.Vec("async.heap.at"), snap.Vec("async.heap.worker")
	if len(at) != s.cfg.K || len(worker) != s.cfg.K {
		return fmt.Errorf("core: snapshot has %d/%d pending worker steps, want %d", len(at), len(worker), s.cfg.K)
	}
	q := s.async.queue[:0]
	for i, w := range worker {
		if w < 0 || int(w) >= s.cfg.K {
			return fmt.Errorf("core: snapshot schedules unknown worker %v", w)
		}
		q = append(q, stepEvent{at: at[i], worker: int(w)})
	}
	s.async.queue = q
	s.res.Steps = 0
	for k, st := range s.async.fda.states {
		n, ok := snap.U64(fmt.Sprintf("w%d.steps", k))
		state := snap.Vec(fmt.Sprintf("w%d.state", k))
		if !ok || len(state) != len(st) {
			return fmt.Errorf("core: snapshot lacks worker %d's step count or coordinator state", k)
		}
		copy(st, state)
		s.res.StepsPerWorker[k] = int(n)
		s.res.Steps = max(s.res.Steps, int(n))
	}
	return nil
}

// stepEvent is one worker's next state arrival in virtual time.
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

// delay postpones every event by sec. Rounding can tie two events that
// were apart, so the queue is re-sorted: a sorted array is a heap.
func (q eventQueue) delay(sec float64) {
	if sec == 0 {
		return
	}
	for i := range q {
		q[i].at += sec
	}
	sort.Sort(q)
}

func (q eventQueue) Len() int { return len(q) }
