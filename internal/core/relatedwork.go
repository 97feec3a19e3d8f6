package core

import (
	"fmt"
	"math"
)

// This file implements the fixed-schedule communication strategies the
// paper's related-work section (§2) positions FDA against. They exist so
// the repository can also reproduce the comparisons FDA's design
// arguments rest on: no predetermined schedule — fixed, increasing,
// decreasing, or gradient-triggered — adapts to the actual training
// state the way variance monitoring does.

// VaryingTauLocalSGD is Local-SGD with a schedule of local-update counts
// {τ_0, τ_1, ...} instead of a fixed τ. The paper cites both decreasing
// schedules (Wang & Joshi: minimize error at a wall-time budget) and
// increasing ones (Haddadpour et al.: fewer rounds for a step budget).
type VaryingTauLocalSGD struct {
	// Schedule maps the round index r (0-based) to τ_r. The ready-made
	// schedules below cover the cited families.
	Schedule func(round int) int
	// Label names the schedule in results.
	Label string

	round    int
	nextSync int
}

// NewIncreasingTauLocalSGD returns τ_r = base·2^⌊r/every⌋ (the increasing
// family of Haddadpour et al. [17]).
func NewIncreasingTauLocalSGD(base, every int) *VaryingTauLocalSGD {
	if base <= 0 || every <= 0 {
		panic("core: increasing-τ schedule needs positive base and period")
	}
	return &VaryingTauLocalSGD{
		Label: fmt.Sprintf("LocalSGD(τ=%d·2^(r/%d))", base, every),
		Schedule: func(r int) int {
			return base << uint(r/every)
		},
	}
}

// NewDecreasingTauLocalSGD returns τ_r = max(1, ⌈base/2^⌊r/every⌋⌉) (the
// decaying family of Wang & Joshi [57] / Mills et al. [38]).
func NewDecreasingTauLocalSGD(base, every int) *VaryingTauLocalSGD {
	if base <= 0 || every <= 0 {
		panic("core: decreasing-τ schedule needs positive base and period")
	}
	return &VaryingTauLocalSGD{
		Label: fmt.Sprintf("LocalSGD(τ=%d/2^(r/%d))", base, every),
		Schedule: func(r int) int {
			tau := base >> uint(r/every)
			if tau < 1 {
				tau = 1
			}
			return tau
		},
	}
}

// Name implements Strategy.
func (v *VaryingTauLocalSGD) Name() string { return v.Label }

// Init implements Strategy.
func (v *VaryingTauLocalSGD) Init(_ *Env) {
	if v.Schedule == nil {
		panic("core: VaryingTauLocalSGD without a schedule")
	}
	v.round = 0
	v.nextSync = v.Schedule(0)
}

// StateSnapshot implements the session checkpoint contract: the round
// index and the next synchronization step.
func (v *VaryingTauLocalSGD) StateSnapshot() ([][]float64, []uint64) {
	return nil, []uint64{uint64(v.round), uint64(v.nextSync)}
}

// RestoreState implements the session checkpoint contract.
func (v *VaryingTauLocalSGD) RestoreState(vecs [][]float64, counters []uint64) error {
	if len(vecs) != 0 || len(counters) != 2 {
		return fmt.Errorf("core: varying-τ snapshot shape %d/%d", len(vecs), len(counters))
	}
	v.round = int(counters[0])
	v.nextSync = int(counters[1])
	return nil
}

// AfterLocalStep implements Strategy.
func (v *VaryingTauLocalSGD) AfterLocalStep(env *Env, t int) {
	if t < v.nextSync {
		return
	}
	env.SyncModels()
	v.round++
	tau := v.Schedule(v.round)
	if tau < 1 {
		tau = 1
	}
	v.nextSync = t + tau
}

// PostLocalSGD is the two-phase method of Lin et al. [32] the paper
// discusses: an initial BSP phase (synchronize every step for the first
// SwitchStep steps) followed by Local-SGD with fixed τ, trading early
// convergence speed for late communication savings.
type PostLocalSGD struct {
	SwitchStep int
	Tau        int
}

// NewPostLocalSGD returns the two-phase baseline.
func NewPostLocalSGD(switchStep, tau int) *PostLocalSGD {
	if switchStep < 0 || tau <= 0 {
		panic("core: PostLocalSGD needs non-negative switch and positive τ")
	}
	return &PostLocalSGD{SwitchStep: switchStep, Tau: tau}
}

// Name implements Strategy.
func (p *PostLocalSGD) Name() string {
	return fmt.Sprintf("PostLocalSGD(t<%d, τ=%d)", p.SwitchStep, p.Tau)
}

// Init implements Strategy.
func (p *PostLocalSGD) Init(_ *Env) {}

// AfterLocalStep implements Strategy.
func (p *PostLocalSGD) AfterLocalStep(env *Env, t int) {
	if t <= p.SwitchStep || (t-p.SwitchStep)%p.Tau == 0 {
		env.SyncModels()
	}
}

// LAG is a lazily-aggregated baseline in the spirit of Chen et al. [5]:
// a synchronization round is skipped while the aggregate update magnitude
// has changed little since the last performed round (the analogue of
// reusing outdated gradients). Unlike FDA it watches update-magnitude
// *change* rather than cross-worker variance, so it cannot tell
// coordinated progress from divergence — the comparison FDA's intuition
// (§3.3) is about.
type LAG struct {
	// Tau is the nominal round length in steps.
	Tau int
	// Threshold is the relative-change fraction below which a round is
	// skipped (default 0.5).
	Threshold float64

	lastNorm float64
	states   [][]float64
	meanSt   []float64
	body     func(i int, w *Worker)
}

// NewLAG returns the lazily-aggregated baseline.
func NewLAG(tau int, threshold float64) *LAG {
	if tau <= 0 {
		panic("core: LAG τ must be positive")
	}
	if threshold <= 0 {
		threshold = 0.5
	}
	return &LAG{Tau: tau, Threshold: threshold}
}

// Name implements Strategy.
func (l *LAG) Name() string { return fmt.Sprintf("LAG(τ=%d)", l.Tau) }

// Init implements Strategy.
func (l *LAG) Init(env *Env) {
	l.lastNorm = 0 // forces a synchronization at the first round
	l.states = make([][]float64, len(env.Workers))
	for i := range l.states {
		l.states[i] = make([]float64, 1)
	}
	l.meanSt = make([]float64, 1)
	l.body = func(i int, w *Worker) {
		_, sq := w.DriftSquaredNorm(env.W0)
		l.states[i][0] = sq
	}
}

// StateSnapshot implements the session checkpoint contract: the drift
// magnitude at the last performed round.
func (l *LAG) StateSnapshot() ([][]float64, []uint64) {
	return nil, []uint64{math.Float64bits(l.lastNorm)}
}

// RestoreState implements the session checkpoint contract.
func (l *LAG) RestoreState(vecs [][]float64, counters []uint64) error {
	if len(vecs) != 0 || len(counters) != 1 {
		return fmt.Errorf("core: LAG snapshot shape %d/%d", len(vecs), len(counters))
	}
	l.lastNorm = math.Float64frombits(counters[0])
	return nil
}

// AfterLocalStep implements Strategy.
//
//fda:noalloc
func (l *LAG) AfterLocalStep(env *Env, t int) {
	if t%l.Tau != 0 {
		return
	}
	// Cheap trigger: mean squared drift (scalars, like an FDA state
	// AllReduce but without the deflation term).
	env.ForEachWorker(l.body)
	env.Fabric.AllReduceMean("state", l.meanSt, l.states)

	// Lazily skip the round while the aggregate drift magnitude is close
	// to what it was at the last performed round.
	if math.Abs(l.meanSt[0]-l.lastNorm) < l.Threshold*l.lastNorm {
		return // models stay local; drift keeps accumulating
	}
	l.lastNorm = l.meanSt[0]
	env.SyncModels()
}
