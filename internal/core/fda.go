package core

import (
	"fmt"

	"repro/internal/sketch"
	"repro/internal/tensor"
)

// fdaBase carries the state shared by both FDA variants: the variance
// threshold Θ and the per-step decision loop of Algorithm 1. The variant
// contributes the local-state summary and the estimation function H.
//
// Per global step t each worker k:
//
//  1. computes its drift u^(k) = w^(k) − w_t0 and squared norm ‖u^(k)‖²,
//  2. builds the variant's local state S^(k),
//  3. the states are AllReduce-averaged (charged as "state" traffic),
//  4. all workers evaluate H(S̄); if H(S̄) > Θ the full models are
//     AllReduce-averaged (charged as "model" traffic) and a new round
//     begins.
type fdaBase struct {
	Theta float64

	// maxStat tracks the running maximum of H over the run — the guard a
	// prefix snapshot publishes so siblings can prove they would not have
	// synchronized inside it (prefix.go). Maintained by each variant's
	// AfterLocalStep; only its pre-first-sync values are ever consumed.
	maxStat float64
}

// observe folds one step's statistic into the guard.
func (b *fdaBase) observe(h float64) {
	if h > b.maxStat {
		b.maxStat = h
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

	sk     *sketch.Sketcher
	states [][]float64 // per-worker state vectors [‖u‖², sketch...]
	// workerSk[i] views states[i][1:] as a sketch so each worker can
	// sketch its drift straight into its own state slot, concurrently.
	workerSk []*sketch.Sketch
	meanSt   []float64
	meanSk   *sketch.Sketch
	// body is the per-worker state computation, bound once at Init so the
	// per-step dispatch closes over no per-call state and allocates
	// nothing; m2Scratch backs the estimator's median-of-rows buffer.
	body      func(i int, w *Worker)
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
	if s.Theta < 0 {
		panic(fmt.Sprintf("core: negative Θ %v", s.Theta))
	}
	s.sk = sketch.NewSketcher(s.L, s.M, s.SketchSeed^0x5ce7c4)
	s.sk.Precompute(env.D)
	stateDim := 1 + s.L*s.M
	s.states = make([][]float64, len(env.Workers))
	s.workerSk = make([]*sketch.Sketch, len(env.Workers))
	for i := range s.states {
		s.states[i] = make([]float64, stateDim)
		s.workerSk[i] = &sketch.Sketch{L: s.L, M: s.M, Data: s.states[i][1:]}
	}
	s.meanSt = make([]float64, stateDim)
	s.meanSk = s.sk.NewSketch()
	s.m2Scratch = make([]float64, s.L)
	s.body = func(i int, w *Worker) {
		u, sq := w.DriftSquaredNorm(env.W0)
		s.states[i][0] = sq
		s.sk.SketchVec(s.workerSk[i], u)
	}
}

// AfterLocalStep implements Strategy.
//
//fda:noalloc
func (s *SketchFDA) AfterLocalStep(env *Env, _ int) {
	// Per-worker drift and sketch computations are independent (the
	// Sketcher is immutable after Precompute) and run on the pool; the
	// state AllReduce below reduces in worker order on this goroutine.
	env.ForEachWorker(s.body)
	env.Fabric.AllReduceMean("state", s.meanSt, s.states)
	h := s.estimate()
	s.observe(h)
	if h > s.Theta {
		env.SyncModels()
	}
}

// estimate computes H(S̄) from the averaged state.
func (s *SketchFDA) estimate() float64 {
	meanSq := s.meanSt[0]
	copy(s.meanSk.Data, s.meanSt[1:])
	return meanSq - sketch.M2Into(s.meanSk, s.m2Scratch)/(1+s.Epsilon)
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

	xi     []float64
	states [][]float64
	meanSt []float64
	body   func(i int, w *Worker)
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
	l.states = make([][]float64, len(env.Workers))
	for i := range l.states {
		l.states[i] = make([]float64, 2)
	}
	l.meanSt = make([]float64, 2)
	l.body = func(i int, w *Worker) {
		l.states[i][0], l.states[i][1] = w.DriftState(env.W0, l.xi)
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

// AfterLocalStep implements Strategy.
//
//fda:noalloc
func (l *LinearFDA) AfterLocalStep(env *Env, _ int) {
	env.ForEachWorker(l.body)
	env.Fabric.AllReduceMean("state", l.meanSt, l.states)
	h := l.meanSt[0] - l.meanSt[1]*l.meanSt[1]
	l.observe(h)
	if h > l.Theta {
		env.SyncModels()
		if l.XiMode == "drift" && env.WPrev != nil {
			// ξ ← (w_t0 − w_t−1) normalized; skip degenerate zero drift.
			tensor.Sub(l.xi, env.W0, env.WPrev)
			if tensor.Normalize(l.xi) == 0 {
				tensor.Zero(l.xi)
			}
		}
	}
}

// OracleFDA is an ablation, not a deployable strategy: it monitors the
// exact model variance (Eq. 2) at zero estimation error and synchronizes
// when Var(w_t) > Θ. It charges the same two-scalar state traffic as
// LinearFDA so results isolate estimation quality, not bandwidth. The gap
// between OracleFDA and the two real variants measures how much their
// overestimation costs in extra synchronizations.
type OracleFDA struct {
	fdaBase

	states [][]float64
	meanSt []float64
	body   func(i int, w *Worker)
}

// NewOracleFDA returns the exact-variance oracle with threshold theta.
func NewOracleFDA(theta float64) *OracleFDA {
	return &OracleFDA{fdaBase: fdaBase{Theta: theta}}
}

// Name implements Strategy.
func (o *OracleFDA) Name() string { return "OracleFDA" }

// Init implements Strategy.
func (o *OracleFDA) Init(env *Env) {
	o.states = make([][]float64, len(env.Workers))
	for i := range o.states {
		o.states[i] = make([]float64, 2)
	}
	o.meanSt = make([]float64, 2)
	o.body = func(i int, w *Worker) {
		_, sq := w.DriftSquaredNorm(env.W0)
		o.states[i][0] = sq
	}
}

// AfterLocalStep implements Strategy.
func (o *OracleFDA) AfterLocalStep(env *Env, _ int) {
	// Charge the same state traffic a two-scalar variant would use.
	env.ForEachWorker(o.body)
	env.Fabric.AllReduceMean("state", o.meanSt, o.states)
	h := env.ExactVarianceViaDrift()
	o.observe(h)
	if h > o.Theta {
		env.SyncModels()
	}
}
