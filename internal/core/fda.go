package core

import (
	"fmt"

	"repro/internal/sketch"
	"repro/internal/tensor"
)

// fdaBase carries the state shared by the FDA variants: the variance
// threshold Θ and the per-step decision loop of Algorithm 1. The variant
// contributes the local-state summary (body) and the estimation function
// H (estimate), both bound at Init.
//
// Per global step t each worker k:
//
//  1. computes its drift u^(k) = w^(k) − w_t0 and squared norm ‖u^(k)‖²,
//  2. builds the variant's local state S^(k),
//  3. the states are AllReduce-averaged (charged as "state" traffic),
//  4. all workers evaluate H(S̄); if H(S̄) > Θ the full models are
//     AllReduce-averaged (charged as "model" traffic) and a new round
//     begins.
//
// The asynchronous variant (AsyncFDA) runs the same body and estimate,
// one moving worker at a time.
type fdaBase struct {
	Theta float64

	// maxStat tracks the running maximum of H over the run — the guard a
	// prefix snapshot publishes so siblings can prove they would not have
	// synchronized inside it (prefix.go). Only its pre-first-sync values
	// are ever consumed.
	maxStat float64

	states [][]float64 // per-worker local states S^(k)
	meanSt []float64   // S̄
	// body computes worker i's state into states[i]; it is bound once at
	// Init so the per-step dispatch closes over no per-call state and
	// allocates nothing. estimate evaluates H over meanSt, and synced (nil
	// when the variant keeps no sync-dependent state) updates the variant
	// after a model synchronization.
	body     func(i int, w *Worker)
	estimate func() float64
	synced   func()
}

// initStates allocates n per-worker states of dim elements and their mean.
func (b *fdaBase) initStates(n, dim int) {
	b.states = make([][]float64, n)
	for i := range b.states {
		b.states[i] = make([]float64, dim)
	}
	b.meanSt = make([]float64, dim)
}

// validate refuses a negative (or NaN) Θ: H estimates a variance, so
// such a threshold is crossed at (almost) every step, and the run would
// synchronize like Synchronous while metering state traffic on top.
func (b *fdaBase) validate() error {
	if !(b.Theta >= 0) {
		return fmt.Errorf("core: Θ must be non-negative, got %v", b.Theta)
	}
	return nil
}

// observe folds one step's statistic into the guard.
func (b *fdaBase) observe(h float64) {
	if h > b.maxStat {
		b.maxStat = h
	}
}

// AfterLocalStep implements Strategy for every FDA variant. The
// per-worker state computations are independent and fan out through
// ForEachWorker; the state AllReduce reduces in worker order on this
// goroutine.
//
//fda:noalloc
func (b *fdaBase) AfterLocalStep(env *Env, _ int) {
	env.ForEachWorker(b.body)
	env.Fabric.AllReduceMean("state", b.meanSt, b.states)
	h := b.estimate()
	b.observe(h)
	if h > b.Theta {
		env.SyncModels()
		if b.synced != nil {
			b.synced()
		}
	}
}

// SketchFDA is the AMS-sketch variant (paper §3.1, Theorem 3.1): the
// local state is (‖u‖², sk(u)) and
//
//	H(S̄) = mean‖u‖² − M2(mean sketch)/(1+ε),
//
// which overestimates Var(w_t) with probability ≥ 1−δ.
type SketchFDA struct {
	fdaBase
	// L and M are the sketch depth and width; zero values select the
	// paper's recommendation l=5, m=250 (ε≈6%, 1−δ≈95%).
	L, M int
	// Epsilon is the sketch error bound used in H's deflation term;
	// zero selects 0.06, matching the default dimensions.
	Epsilon float64
	// SketchSeed seeds the shared hash functions (all workers must agree).
	SketchSeed uint64

	// sk's hash functions are immutable after Precompute, so workers
	// sketch concurrently. A state is [‖u‖², sketch...]; workerSk[i] views
	// states[i][1:] as a sketch so each worker sketches its drift straight
	// into its own state slot. m2Scratch backs the estimator's
	// median-of-rows buffer.
	sk        *sketch.Sketcher
	workerSk  []*sketch.Sketch
	meanSk    *sketch.Sketch
	m2Scratch []float64
}

// NewSketchFDA returns the sketch-based FDA strategy with threshold theta
// and default sketch dimensions.
func NewSketchFDA(theta float64) *SketchFDA {
	return &SketchFDA{fdaBase: fdaBase{Theta: theta}}
}

// Name implements Strategy.
func (s *SketchFDA) Name() string { return "SketchFDA" }

// Init implements Strategy.
func (s *SketchFDA) Init(env *Env) {
	if s.L == 0 {
		s.L = 5
	}
	if s.M == 0 {
		// The paper's m=250 assumes sketches far smaller than the model
		// (5 kB vs multi-MB models, §3.3). At reproduction scale small
		// models would otherwise carry sketches comparable to themselves,
		// so cap the sketch at ~1/10 of the model dimension, floored to
		// keep estimates usable. The error bound ε widens accordingly
		// (ε ~ 1/√m), keeping H a conservative overestimate.
		s.M = env.D / (10 * s.L)
		if s.M > 250 {
			s.M = 250
		}
		if s.M < 16 {
			s.M = 16
		}
		if s.Epsilon == 0 {
			s.Epsilon = 15.0 / float64(s.M)
			if s.Epsilon < 0.06 {
				s.Epsilon = 0.06
			}
			if s.Epsilon > 0.5 {
				s.Epsilon = 0.5
			}
		}
	}
	if s.Epsilon == 0 {
		s.Epsilon = 0.06
	}
	s.sk = sketch.NewSketcher(s.L, s.M, s.SketchSeed^0x5ce7c4)
	s.sk.Precompute(env.D)
	s.initStates(len(env.Workers), 1+s.L*s.M)
	s.workerSk = make([]*sketch.Sketch, len(env.Workers))
	for i, st := range s.states {
		s.workerSk[i] = &sketch.Sketch{L: s.L, M: s.M, Data: st[1:]}
	}
	s.meanSk = s.sk.NewSketch()
	s.m2Scratch = make([]float64, s.L)
	s.body = func(i int, w *Worker) {
		u, sq := w.DriftSquaredNorm(env.W0)
		s.states[i][0] = sq
		s.sk.SketchVec(s.workerSk[i], u)
	}
	s.estimate = func() float64 {
		copy(s.meanSk.Data, s.meanSt[1:])
		return s.meanSt[0] - sketch.M2Into(s.meanSk, s.m2Scratch)/(1+s.Epsilon)
	}
}

// LinearFDA is the two-scalar variant (paper §3.2, Theorem 3.2): the local
// state is (‖u‖², ⟨ξ, u⟩) for a shared unit vector ξ, and
//
//	H(S̄) = mean‖u‖² − (mean⟨ξ, u⟩)²
//
// deterministically overestimates Var(w_t) by Cauchy–Schwarz. ξ is the
// paper's heuristic: the normalized global drift between the last two
// synchronizations, ξ = (w_t0 − w_t−1)/‖w_t0 − w_t−1‖; until two
// synchronizations have happened ξ = 0, making H the (valid, loose)
// mean-squared-drift bound.
type LinearFDA struct {
	fdaBase
	// XiMode selects the direction heuristic: "drift" (paper), "random"
	// (ablation: a fixed random unit vector), or "zero" (ablation: no
	// deflation term at all).
	XiMode string
	// Seed drives the random-ξ ablation.
	Seed uint64

	xi []float64
}

// NewLinearFDA returns the linear FDA strategy with threshold theta and
// the paper's ξ heuristic.
func NewLinearFDA(theta float64) *LinearFDA {
	return &LinearFDA{fdaBase: fdaBase{Theta: theta}, XiMode: "drift"}
}

// Name implements Strategy.
func (l *LinearFDA) Name() string { return "LinearFDA" }

// Init implements Strategy.
func (l *LinearFDA) Init(env *Env) {
	l.xi = make([]float64, env.D)
	if l.XiMode == "random" {
		rng := tensor.NewRNG(l.Seed ^ 0x11fda)
		tensor.Normal(rng, l.xi, 0, 1)
		tensor.Normalize(l.xi)
	}
	l.initStates(len(env.Workers), 2)
	l.body = func(i int, w *Worker) {
		l.states[i][0], l.states[i][1] = w.DriftState(env.W0, l.xi)
	}
	l.estimate = func() float64 { return l.meanSt[0] - l.meanSt[1]*l.meanSt[1] }
	l.synced = func() {
		if l.XiMode == "drift" && env.WPrev != nil {
			// ξ ← (w_t0 − w_t−1) normalized; skip degenerate zero drift.
			tensor.Sub(l.xi, env.W0, env.WPrev)
			if tensor.Normalize(l.xi) == 0 {
				tensor.Zero(l.xi)
			}
		}
	}
}

// StateSnapshot implements the session checkpoint contract: ξ is the
// only cross-step state (the per-step drift states are recomputed).
func (l *LinearFDA) StateSnapshot() ([][]float64, []uint64) {
	return [][]float64{l.xi}, nil
}

// RestoreState implements the session checkpoint contract.
func (l *LinearFDA) RestoreState(vecs [][]float64, counters []uint64) error {
	if len(vecs) != 1 || len(counters) != 0 {
		return fmt.Errorf("core: LinearFDA snapshot shape %d/%d", len(vecs), len(counters))
	}
	if len(vecs[0]) != len(l.xi) {
		return fmt.Errorf("core: LinearFDA ξ length %d, want %d", len(vecs[0]), len(l.xi))
	}
	copy(l.xi, vecs[0])
	return nil
}

// OracleFDA is an ablation, not a deployable strategy: it monitors the
// exact model variance (Eq. 2) at zero estimation error and synchronizes
// when Var(w_t) > Θ. It charges the same two-scalar state traffic as
// LinearFDA so results isolate estimation quality, not bandwidth. The gap
// between OracleFDA and the two real variants measures how much their
// overestimation costs in extra synchronizations.
type OracleFDA struct {
	fdaBase
}

// NewOracleFDA returns the exact-variance oracle with threshold theta.
func NewOracleFDA(theta float64) *OracleFDA {
	return &OracleFDA{fdaBase: fdaBase{Theta: theta}}
}

// Name implements Strategy.
func (o *OracleFDA) Name() string { return "OracleFDA" }

// Init implements Strategy.
func (o *OracleFDA) Init(env *Env) {
	// The state is two scalars so the AllReduce charges what a two-scalar
	// variant would; only its first entry is ever filled.
	o.initStates(len(env.Workers), 2)
	o.body = func(i int, w *Worker) {
		_, sq := w.DriftSquaredNorm(env.W0)
		o.states[i][0] = sq
	}
	o.estimate = env.ExactVarianceViaDrift
}
