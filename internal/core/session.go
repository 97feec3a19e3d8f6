package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Session is an in-flight training run exposed as an incremental,
// inspectable object: callers advance it one global step at a time with
// Step, observe typed events (StepEvent, SyncEvent, EvalEvent,
// DoneEvent) through Subscribe, cancel it through the context passed to
// NewSession, and capture/replay its complete state with
// Snapshot/Restore. Run, MustRun and the experiment sweeps are thin
// loops over a Session, so a session-driven run is bit-identical to the
// batch API at the same config and seed.
//
// A session is single-goroutine: Step, Snapshot and Restore must not be
// called concurrently. Event sinks run synchronously on the stepping
// goroutine in subscription order.
//
// State machine (DESIGN.md §8): running → done | failed. Context
// cancellation is not a state — it is observed only between steps, so a
// cancelled session stays resumable: snapshot it, restore into a fresh
// session, and the continuation replays the exact trajectory an
// uninterrupted run would have taken.
type Session struct {
	cfg   Config
	strat Strategy
	ctx   context.Context

	env          *Env
	eval         *evaluator
	globalParams []float64
	stepBody     func(int, *Worker)
	// stepTimer/clock are the fabric's optional time-modeling faces,
	// asserted once at construction so the steady-state step does no
	// interface probing.
	stepTimer comm.StepTimer
	clock     comm.VirtualClocker

	// samplesPerStep is the training samples one step consumes; budget
	// and evalEvery are the step limit and evaluation cadence. An
	// asynchronous session's step is one worker's, so there they are
	// BatchSize, MaxSteps·K and EvalEvery·K.
	samplesPerStep float64
	trainLen       float64
	budget         int
	evalEvery      int
	// async is the asynchronous stepping mode (async.go); nil in a
	// lock-step session.
	async *AsyncFDA

	t         int // last completed step
	finished  bool
	finishErr error
	res       Result
	// modelBytesSeen is the model-traffic total as of the last
	// synchronization, so SyncEvent can report per-sync bytes.
	modelBytesSeen int64

	// prefixFn/prefixEvery implement the opt-in prefix-publication hook
	// (PublishPrefixes). prefixFn is nil when disabled — the steady-state
	// step then pays one pointer comparison and allocates nothing — and
	// is cleared permanently at the first synchronization.
	prefixFn    func(steps int, snap *checkpoint.Snapshot)
	prefixEvery int

	// tele holds the session's pre-resolved telemetry instruments
	// (obs.go); observations are side-channel reads only and are
	// dropped entirely while telemetry is disabled.
	tele sessionTele

	sinks []EventSink
}

// resumable is implemented by strategies that carry cross-step state
// beyond Env (ξ direction, server optimizer moments, schedule
// counters...) so Session.Snapshot can capture it. Strategies whose
// AfterLocalStep is a pure function of (Env, t) — Synchronous, LocalSGD,
// PostLocalSGD, SketchFDA, OracleFDA — need not implement it.
//
// StateSnapshot returns views; the session copies them into the
// checkpoint before the strategy runs again. RestoreState is called
// after Init on a freshly built strategy of the same type and must
// accept exactly the shapes its own StateSnapshot produces.
type resumable interface {
	StateSnapshot() (vecs [][]float64, counters []uint64)
	RestoreState(vecs [][]float64, counters []uint64) error
}

// buildReplicas draws everything a run seeds from cfg.Seed: the shared
// initial model w0, one worker (replica, optimizer, shard, sampler) per
// rank in ranks, and the evaluation replica. The root-RNG consumption
// order (init replica, partition, then per rank net + sampler, then the
// evaluation replica) is the determinism contract of every runner,
// lock-step and asynchronous alike; reordering it would silently change
// every trajectory. Replicas are built only for the listed ranks, but
// the stream is consumed for all K — that alignment is what makes a
// distributed worker's shard, model and sampler bit-identical to its
// in-process counterpart.
func buildReplicas(cfg Config, ranks []int) (w0 []float64, workers []*Worker, evalNet *nn.Network) {
	root := tensor.NewRNG(cfg.Seed)
	w0 = tensor.Clone(cfg.Model(root.Split()).Params())
	shards := cfg.Het.Partition(cfg.Train, cfg.K, root.Split())
	workers = make([]*Worker, 0, len(ranks))
	for k := 0; k < cfg.K; k++ {
		netRNG := root.Split()
		samplerRNG := root.Split()
		if len(workers) < len(ranks) && ranks[len(workers)] == k {
			net := cfg.Model(netRNG)
			net.SetParams(w0)
			workers = append(workers, &Worker{
				ID:      k,
				Net:     net,
				Opt:     cfg.Optimizer(),
				Shard:   shards[k],
				drift:   make([]float64, len(w0)),
				sampler: data.NewSampler(shards[k], samplerRNG),
			})
		}
	}
	return w0, workers, cfg.Model(root.Split())
}

// NewSession validates cfg and strat, builds the cluster, workers and
// strategy state exactly as Run does, and returns a session positioned
// before step 1. An *AsyncFDA strategy selects asynchronous stepping
// (async.go). The context governs cancellation: once it is done, Step
// returns its error without advancing. A nil ctx means Background.
func NewSession(ctx context.Context, cfg Config, strat Strategy) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateStrategy(strat); err != nil {
		return nil, err
	}
	// The fabric decides which ranks live in this process: all of them
	// on the in-process backends, one inside a distributed worker. A
	// fabric instance carries a meter and (possibly) a clock, so it
	// belongs to exactly one run.
	async, _ := strat.(*AsyncFDA)
	fabric := cfg.Fabric
	switch {
	case fabric != nil:
	case async != nil:
		// Asynchronous FDA needs a clock; by default every worker takes
		// one virtual second per step and communication takes none.
		unit, _ := comm.SpeedsScenario([]float64{1}) // a valid rate: no error
		fabric = comm.NewSimFabric(cfg.K, cfg.Cost, unit)
	default:
		fabric = comm.NewClusterWithCost(cfg.K, cfg.Cost)
	}
	if async != nil {
		if err := async.bind(cfg, fabric); err != nil {
			return nil, err
		}
	}
	ranks := fabric.Ranks()
	if len(ranks) == 0 {
		return nil, fmt.Errorf("core: fabric owns no local ranks")
	}
	w0, workers, evalNet := buildReplicas(cfg, ranks)
	d := len(w0)

	env := newEnv(fabric, workers)
	env.width = par.Resolve(cfg.Parallelism)
	strat.Init(env)

	s := &Session{
		cfg:            cfg,
		strat:          strat,
		ctx:            ctx,
		env:            env,
		eval:           newEvaluator(env.width, evalNet, cfg.Model, cfg.Seed),
		globalParams:   make([]float64, d),
		samplesPerStep: float64(cfg.BatchSize * cfg.K),
		trainLen:       float64(cfg.Train.Len()),
		budget:         cfg.MaxSteps,
		evalEvery:      cfg.EvalEvery,
		res:            Result{Strategy: strat.Name()},
		tele:           newSessionTele(strat.Name()),
	}
	if async != nil {
		s.async = async
		s.samplesPerStep = float64(cfg.BatchSize)
		s.budget *= cfg.K
		s.evalEvery *= cfg.K
		s.res.StepsPerWorker = make([]int, cfg.K)
	}
	if st, ok := fabric.(comm.StepTimer); ok {
		s.stepTimer = st
	}
	if cl, ok := fabric.(comm.VirtualClocker); ok {
		s.clock = cl
	}
	// Hoisted per-step body: one closure for the whole session, so the
	// steady-state loop allocates nothing.
	s.stepBody = func(_ int, w *Worker) { w.LocalStep(cfg.BatchSize) }
	return s, nil
}

// Subscribe attaches an event sink. Sinks receive every subsequent event
// synchronously, in subscription order, on the stepping goroutine.
func (s *Session) Subscribe(sink EventSink) {
	s.sinks = append(s.sinks, sink)
}

func (s *Session) emit(e Event) {
	for _, sink := range s.sinks {
		sink(e)
	}
}

// Step advances the session by one step: every worker performs one
// local update, the strategy decides on synchronization, and — on
// evaluation steps — the averaged global model is scored. In an
// asynchronous session a step is one worker's local update and the
// coordinator's decision. Step returns false once the run has finished
// (the final Result is then available from Result); the error is
// non-nil when the session's context was cancelled (the session stays
// resumable), or the session is failed: the model diverged, or a
// worker's optimizer did not report the drift its strategy watches
// (*SilentOptimizerError).
func (s *Session) Step() (bool, error) {
	if s.finished {
		return false, s.finishErr
	}
	if err := s.ctx.Err(); err != nil {
		return false, err
	}
	if s.t >= s.budget {
		// Only reachable through Restore: a snapshot taken at (or past)
		// this config's step budget has nothing left to run.
		s.finish(nil)
		return false, nil
	}

	t := s.t + 1
	// Telemetry stamps and spans are side-channel reads: they observe
	// the step, never steer it. Disabled, each costs one atomic load.
	stepStart := obs.Clock()
	sp := obs.StartRegion("step", "session")
	prevSyncs := s.env.SyncCount
	var ev StepEvent
	var syncStart int64
	if s.async != nil {
		var err error
		if ev, syncStart, err = s.stepWorker(t); err != nil {
			s.finish(err)
			return false, err
		}
	} else {
		s.env.ForEachWorker(s.stepBody)
		for _, w := range s.env.Workers {
			if err := w.checkReport(); err != nil {
				s.finish(err)
				return false, err
			}
		}
		if s.stepTimer != nil {
			// Compute time of step t lands on the virtual clock before the
			// strategy's collectives add their communication time.
			s.stepTimer.StepDone(t)
		}
		syncStart = obs.Clock()
		s.strat.AfterLocalStep(s.env, t)
		s.res.Steps = t
		ev = StepEvent{Step: t, Worker: -1}
	}
	s.t = t
	s.emit(ev)
	s.tele.steps.Inc()
	if s.env.SyncCount > prevSyncs {
		meter := s.env.Fabric.Meter()
		modelBytes := meter.BytesFor("model")
		s.emit(SyncEvent{
			Step:       ev.Step,
			SyncCount:  s.env.SyncCount,
			Trigger:    s.strat.Name(),
			SyncBytes:  modelBytes - s.modelBytesSeen,
			TotalBytes: meter.TotalBytes(),
		})
		s.tele.syncs.Inc()
		s.tele.syncSec.Since(syncStart)
		if obs.Tracing() {
			obs.Instant("sync", "session", "step", ev.Step,
				"trigger", s.strat.Name(), "sync_bytes", modelBytes-s.modelBytesSeen)
		}
		s.modelBytesSeen = modelBytes
	}
	s.tele.stepSec.Since(stepStart)
	if sp.Active() {
		sp.EndArgs("t", t, "synced", s.env.SyncCount > prevSyncs)
	}

	// A lock-step run always scores its last step; an asynchronous one
	// only on its cadence.
	if t%s.evalEvery == 0 || (t == s.budget && s.async == nil) {
		evalStart := obs.Clock()
		esp := obs.StartRegion("eval", "session")
		p := s.evaluate(ev.Step)
		s.tele.evalSec.Since(evalStart)
		if esp.Active() {
			esp.EndArgs("step", ev.Step, "test_acc", p.TestAcc)
		}
		s.res.History = append(s.res.History, p)
		s.res.FinalTestAcc = p.TestAcc
		s.emit(EvalEvent{Point: p})
		if s.cfg.TargetAccuracy > 0 && p.TestAcc >= s.cfg.TargetAccuracy {
			s.res.ReachedTarget = true
			s.finish(nil)
			return false, nil
		}
		if !tensor.AllFinite(s.globalParams) {
			s.finish(fmt.Errorf("core: %s diverged (non-finite parameters) at step %d", s.strat.Name(), ev.Step))
			return false, s.finishErr
		}
	}
	// Prefix publication sits after the eval block on purpose: the early
	// returns above (target reached, divergence) mean a terminal step is
	// never published, so every published prefix ends strictly before any
	// early stop — a consumer restored from it cannot overshoot a finish
	// its own cold run would have taken. The first synchronization ends
	// the shared prefix and disarms the hook for good.
	if s.prefixFn != nil {
		if s.env.SyncCount > 0 {
			s.prefixFn = nil
		} else if t%s.prefixEvery == 0 {
			if snap, err := s.snapshot(false); err == nil {
				s.prefixFn(t, snap)
			}
		}
	}
	if t >= s.budget {
		s.finish(nil)
		return false, nil
	}
	return true, nil
}

// PublishPrefixes arms the trajectory-prefix publication hook: while
// the session has not yet synchronized, fn receives a snapshot every
// `every` completed steps. The snapshots deliberately omit strategy
// state — before the first synchronization a PrefixSharer's state is
// its Init state (prefix.go), which is what makes them consumable by
// sibling cells with different sync-time parameters. fn runs
// synchronously on the stepping goroutine; the hook disarms itself
// permanently at the first synchronization. On a session already past
// a synchronization (e.g. restored there) the call is a no-op.
func (s *Session) PublishPrefixes(every int, fn func(steps int, snap *checkpoint.Snapshot)) error {
	if every <= 0 {
		return fmt.Errorf("core: PublishPrefixes cadence %d", every)
	}
	if fn == nil {
		return fmt.Errorf("core: PublishPrefixes with nil sink")
	}
	if s.env.SyncCount > 0 {
		return nil
	}
	s.prefixEvery = every
	s.prefixFn = fn
	return nil
}

// evaluate scores the averaged global model as of the current step,
// recorded as in-parallel step `step`.
func (s *Session) evaluate(step int) Point {
	s.env.GlobalModel(s.globalParams)
	p := Point{
		Step:      step,
		Epoch:     s.epochs(),
		TestAcc:   s.eval.accuracy(s.globalParams, s.cfg.Test),
		CommBytes: s.env.Fabric.Meter().TotalBytes(),
		SyncCount: s.env.SyncCount,
	}
	if s.clock != nil {
		p.VirtualSec = s.clock.VirtualTime()
	}
	if s.cfg.RecordTrainAccuracy {
		p.TrainAcc = s.eval.accuracy(s.globalParams, s.cfg.Train)
	}
	return p
}

// epochs is the training data consumed so far, in passes.
func (s *Session) epochs() float64 { return float64(s.t) * s.samplesPerStep / s.trainLen }

// fillTotals copies the cost totals into the Result, matching the batch
// Run epilogue bit-for-bit.
func (s *Session) fillTotals() {
	meter := s.env.Fabric.Meter()
	s.res.Epochs = s.epochs()
	s.res.CommBytes = meter.TotalBytes()
	s.res.StateBytes = meter.BytesFor("state")
	s.res.ModelBytes = meter.BytesFor("model")
	s.res.SyncCount = s.env.SyncCount
	if s.clock != nil {
		s.res.VirtualSec = s.clock.VirtualTime()
	}
}

// finish seals the session: totals are filled (left zero on divergence,
// as the batch Run left them) and DoneEvent fires.
func (s *Session) finish(err error) {
	s.finished = true
	s.finishErr = err
	if err == nil {
		s.fillTotals()
	}
	ev := DoneEvent{Result: s.Result()}
	if err != nil {
		ev.Err = err.Error()
	}
	s.emit(ev)
}

// Run drives the session to completion and returns the final Result —
// the session-backed equivalent of the batch Run entry point. On
// cancellation the partial Result carries coherent cost totals for the
// steps that did run.
func (s *Session) Run() (Result, error) {
	for {
		more, err := s.Step()
		if err != nil {
			if !s.finished {
				// Cancelled, not failed: make the partial result coherent.
				// (The divergence path keeps zero totals, matching the
				// pre-session batch trainer.)
				s.fillTotals()
			}
			return s.Result(), err
		}
		if !more {
			return s.Result(), nil
		}
	}
}

// Done reports whether the run has finished (successfully or not).
func (s *Session) Done() bool { return s.finished }

// StepCount returns the number of completed steps (worker steps in an
// asynchronous session).
func (s *Session) StepCount() int { return s.t }

// Config returns the session's effective configuration: the one given
// to NewSession with every zero-value default filled in.
func (s *Session) Config() Config { return s.cfg }

// Result returns the run summary accumulated so far; once Done it is
// the final Result, bit-identical to what Run would have returned. The
// Result is the caller's: stepping on does not change it.
func (s *Session) Result() Result {
	r := s.res
	r.StepsPerWorker = slices.Clone(r.StepsPerWorker)
	return r
}

// GlobalModel writes the current averaged global model into dst (live
// serving helper; measurement only, not charged as communication). On a
// distributed fabric this is a collective: every process of the cluster
// must call it at the same point between steps.
func (s *Session) GlobalModel(dst []float64) { s.env.GlobalModel(dst) }

// NumParams returns the model dimension d.
func (s *Session) NumParams() int { return s.env.D }

// Snapshot serializes the session's complete training state — every
// replica, optimizer moments, sampler and dropout stream positions,
// synchronization points, cost meters, evaluation history and resumable
// strategy state — into a version-2 checkpoint. A session restored from
// it continues bit-identically to one that never stopped. Snapshot must
// be called between steps (never from an event sink).
func (s *Session) Snapshot() (*checkpoint.Snapshot, error) { return s.snapshot(true) }

// snapshot builds the checkpoint; withStrategy selects whether
// resumable strategy state is captured. Full checkpoints capture it;
// prefix snapshots (PublishPrefixes) omit it, because before the first
// synchronization a PrefixSharer's state is provably its Init state —
// omitting it is what lets a sibling cell with a different Θ or τ
// restore the snapshot under its own freshly initialized strategy.
func (s *Session) snapshot(withStrategy bool) (*checkpoint.Snapshot, error) {
	env := s.env
	snap := &checkpoint.Snapshot{Step: int64(s.t)}
	snap.Params = make([]float64, env.D)
	env.GlobalModel(snap.Params)
	snap.W0 = append([]float64(nil), env.W0...)

	snap.AddU64("k", uint64(s.cfg.K))
	snap.AddU64("d", uint64(env.D))
	snap.AddU64("synccount", uint64(env.SyncCount))
	if env.WPrev != nil {
		snap.AddVec("wprev", env.WPrev)
	}

	for k, w := range env.Workers {
		snap.AddVec(fmt.Sprintf("w%d.params", k), w.Net.Params())
		snap.AddU64(fmt.Sprintf("w%d.rng", k), w.sampler.RNGState())
		for i, st := range w.Net.RNGStates() {
			snap.AddU64(fmt.Sprintf("w%d.netrng.%d", k, i), st)
		}
		snapOpt, ok := w.Opt.(opt.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("core: optimizer %s does not support snapshots", w.Opt.Name())
		}
		vecs, counters := snapOpt.StateSnapshot()
		addState(snap, fmt.Sprintf("w%d.opt", k), vecs, counters)
	}

	bytes, ops := env.Fabric.Meter().Snapshot()
	//fda:allow(detmap, AddU64 writes distinct map keys; checkpoint.Write serializes them sorted)
	for kind, b := range bytes {
		snap.AddU64("meter.b."+kind, uint64(b))
	}
	//fda:allow(detmap, AddU64 writes distinct map keys; checkpoint.Write serializes them sorted)
	for kind, o := range ops {
		snap.AddU64("meter.o."+kind, uint64(o))
	}
	snap.AddU64("modelbytesseen", uint64(s.modelBytesSeen))
	if s.clock != nil {
		snap.AddU64("fabric.clock", math.Float64bits(s.clock.VirtualTime()))
	}
	if s.async != nil {
		s.snapshotEvents(snap)
	}

	s.snapshotHistory(snap)

	if r, ok := s.resumableStrategy(); ok && withStrategy {
		vecs, counters := r.StateSnapshot()
		snap.AddU64("strat.nv", uint64(len(vecs)))
		snap.AddU64("strat.nc", uint64(len(counters)))
		addState(snap, "strat", vecs, counters)
	}
	return snap, nil
}

// addState stores a strategy's or optimizer's state under prefix: vector
// i as prefix.v<i>, counter i as prefix.c<i>.
func addState(snap *checkpoint.Snapshot, prefix string, vecs [][]float64, counters []uint64) {
	for i, v := range vecs {
		snap.AddVec(fmt.Sprintf("%s.v%d", prefix, i), v)
	}
	for i, c := range counters {
		snap.AddU64(fmt.Sprintf("%s.c%d", prefix, i), c)
	}
}

// stateAt reads back nv vectors and nc counters addState stored under
// prefix; a missing section reads as nil or zero.
func stateAt(snap *checkpoint.Snapshot, prefix string, nv, nc int) ([][]float64, []uint64) {
	vecs := make([][]float64, nv)
	for i := range vecs {
		vecs[i] = snap.Vec(fmt.Sprintf("%s.v%d", prefix, i))
	}
	counters := make([]uint64, nc)
	for i := range counters {
		counters[i], _ = snap.U64(fmt.Sprintf("%s.c%d", prefix, i))
	}
	return vecs, counters
}

// resumableStrategy returns the strategy whose cross-step state the
// checkpoint carries: under asynchronous FDA the wrapped variant, since
// the coordinator's own state rides the event sections (snapshotEvents).
func (s *Session) resumableStrategy() (resumable, bool) {
	strat := s.strat
	if s.async != nil {
		strat = s.async.inner
	}
	r, ok := strat.(resumable)
	return r, ok
}

// snapshotHistory stores the evaluation trace as parallel columns.
// Integer columns are stored as float64 bit patterns, which round-trips
// any int64 exactly (the checkpoint payload is raw bits).
func (s *Session) snapshotHistory(snap *checkpoint.Snapshot) {
	n := len(s.res.History)
	snap.AddU64("histlen", uint64(n))
	if n == 0 {
		return
	}
	step := make([]float64, n)
	epoch := make([]float64, n)
	testAcc := make([]float64, n)
	trainAcc := make([]float64, n)
	commBytes := make([]float64, n)
	syncCount := make([]float64, n)
	virtualSec := make([]float64, n)
	for i, p := range s.res.History {
		step[i] = math.Float64frombits(uint64(p.Step))
		epoch[i] = p.Epoch
		testAcc[i] = p.TestAcc
		trainAcc[i] = p.TrainAcc
		commBytes[i] = math.Float64frombits(uint64(p.CommBytes))
		syncCount[i] = math.Float64frombits(uint64(p.SyncCount))
		virtualSec[i] = p.VirtualSec
	}
	snap.AddVec("hist.step", step)
	snap.AddVec("hist.epoch", epoch)
	snap.AddVec("hist.testacc", testAcc)
	snap.AddVec("hist.trainacc", trainAcc)
	snap.AddVec("hist.commbytes", commBytes)
	snap.AddVec("hist.synccount", syncCount)
	snap.AddVec("hist.virtualsec", virtualSec)
}

// Restore overwrites the session's state with a snapshot taken from a
// session of the same Config and strategy type. The session must be
// freshly built (NewSession, zero steps taken); Restore positions it at
// the snapshot's step so the next Step call computes step t+1 exactly
// as the uninterrupted run would have.
func (s *Session) Restore(snap *checkpoint.Snapshot) error {
	if s.t != 0 {
		return fmt.Errorf("core: Restore on a session that has already stepped (t=%d)", s.t)
	}
	env := s.env
	if k, _ := snap.U64("k"); int(k) != s.cfg.K {
		return fmt.Errorf("core: snapshot has K=%d, session has K=%d", k, s.cfg.K)
	}
	if d, _ := snap.U64("d"); int(d) != env.D {
		return fmt.Errorf("core: snapshot has d=%d, session has d=%d", d, env.D)
	}
	if len(snap.W0) != env.D {
		return fmt.Errorf("core: snapshot w0 length %d, want %d", len(snap.W0), env.D)
	}

	for k, w := range env.Workers {
		params := snap.Vec(fmt.Sprintf("w%d.params", k))
		if len(params) != env.D {
			return fmt.Errorf("core: snapshot worker %d params length %d, want %d", k, len(params), env.D)
		}
		w.Net.SetParams(params)
		rngState, ok := snap.U64(fmt.Sprintf("w%d.rng", k))
		if !ok {
			return fmt.Errorf("core: snapshot missing worker %d sampler state", k)
		}
		w.sampler.SetRNGState(rngState)
		if n := len(w.Net.RNGStates()); n > 0 {
			states := make([]uint64, n)
			for i := range states {
				st, ok := snap.U64(fmt.Sprintf("w%d.netrng.%d", k, i))
				if !ok {
					return fmt.Errorf("core: snapshot missing worker %d dropout state %d", k, i)
				}
				states[i] = st
			}
			w.Net.SetRNGStates(states)
		}
		snapOpt, ok := w.Opt.(opt.Snapshotter)
		if !ok {
			return fmt.Errorf("core: optimizer %s does not support snapshots", w.Opt.Name())
		}
		// The live optimizer's own snapshot declares the expected shapes.
		liveVecs, liveCounters := snapOpt.StateSnapshot()
		vecs, counters := stateAt(snap, fmt.Sprintf("w%d.opt", k), len(liveVecs), len(liveCounters))
		for i, v := range vecs {
			if len(v) != 0 && len(v) != env.D {
				return fmt.Errorf("core: snapshot w%d.opt.v%d (worker %d optimizer state) length %d, want 0 or %d", k, i, k, len(v), env.D)
			}
		}
		if err := snapOpt.RestoreState(vecs, counters); err != nil {
			return fmt.Errorf("core: worker %d optimizer: %w", k, err)
		}
	}

	env.restoreSyncPoints(snap.W0, snap.Vec("wprev"))
	syncs, _ := snap.U64("synccount")
	env.SyncCount = int(syncs)

	bytes := map[string]int64{}
	ops := map[string]int64{}
	//fda:allow(detmap, map-to-map filter with distinct keys; write order is invisible)
	for name, v := range snap.Counters {
		switch {
		case len(name) > 8 && name[:8] == "meter.b.":
			bytes[name[8:]] = int64(v)
		case len(name) > 8 && name[:8] == "meter.o.":
			ops[name[8:]] = int64(v)
		}
	}
	env.Fabric.Meter().Restore(bytes, ops)
	seen, _ := snap.U64("modelbytesseen")
	s.modelBytesSeen = int64(seen)
	if s.clock != nil {
		clockBits, _ := snap.U64("fabric.clock")
		s.clock.SetVirtualTime(math.Float64frombits(clockBits))
	}

	if err := s.restoreHistory(snap); err != nil {
		return err
	}

	if r, ok := s.resumableStrategy(); ok {
		// Prefix snapshots carry no strategy sections at all: before the
		// first synchronization a PrefixSharer's state equals its Init
		// state, so there is nothing to restore — and restoring zeros
		// would be wrong for strategies whose Init state is not zero
		// (FedOpt's global model). Presence of the shape counter is what
		// distinguishes the two snapshot kinds.
		if _, hasStrat := snap.U64("strat.nv"); hasStrat {
			nv, _ := snap.U64("strat.nv")
			nc, _ := snap.U64("strat.nc")
			vecs, counters := stateAt(snap, "strat", int(nv), int(nc))
			if err := r.RestoreState(vecs, counters); err != nil {
				return fmt.Errorf("core: strategy state: %w", err)
			}
		}
	}

	s.t = int(snap.Step)
	if s.async != nil {
		return s.restoreEvents(snap)
	}
	s.res.Steps = s.t
	return nil
}

// restoreHistory rebuilds the evaluation trace from snapshot columns.
func (s *Session) restoreHistory(snap *checkpoint.Snapshot) error {
	n64, _ := snap.U64("histlen")
	n := int(n64)
	s.res.History = nil
	if n == 0 {
		return nil
	}
	cols := map[string][]float64{}
	for _, name := range []string{"hist.step", "hist.epoch", "hist.testacc", "hist.trainacc", "hist.commbytes", "hist.synccount"} {
		col := snap.Vec(name)
		if len(col) != n {
			return fmt.Errorf("core: snapshot history column %s has %d entries, want %d", name, len(col), n)
		}
		cols[name] = col
	}
	// hist.virtualsec arrived with the fabric refactor; checkpoints from
	// earlier binaries simply lack the column and restore as zeros.
	virtualSec := snap.Vec("hist.virtualsec")
	if len(virtualSec) != 0 && len(virtualSec) != n {
		return fmt.Errorf("core: snapshot history column hist.virtualsec has %d entries, want %d", len(virtualSec), n)
	}
	s.res.History = make([]Point, n)
	for i := range s.res.History {
		s.res.History[i] = Point{
			Step:      int(math.Float64bits(cols["hist.step"][i])),
			Epoch:     cols["hist.epoch"][i],
			TestAcc:   cols["hist.testacc"][i],
			TrainAcc:  cols["hist.trainacc"][i],
			CommBytes: int64(math.Float64bits(cols["hist.commbytes"][i])),
			SyncCount: int(math.Float64bits(cols["hist.synccount"][i])),
		}
		if len(virtualSec) == n {
			s.res.History[i].VirtualSec = virtualSec[i]
		}
	}
	s.res.FinalTestAcc = s.res.History[n-1].TestAcc
	return nil
}
