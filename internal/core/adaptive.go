package core

import (
	"fmt"
)

// AdaptiveTheta implements the paper's future-work proposal (§5):
// dynamically adjust Θ so the run's average bandwidth consumption tracks
// a target budget. The observation driving it is monotonicity — larger Θ
// means fewer synchronizations and therefore less communication — so a
// simple multiplicative controller converges onto the budget.
//
// AdaptiveTheta wraps either FDA variant. Every Window steps it compares
// the run's cumulative bytes/step with the budget and scales Θ by Gain
// (above budget) or 1/Gain (below budget), clamped to [MinTheta,
// MaxTheta]. The cumulative (rather than per-window) rate keeps the
// controller stable against the spiky nature of synchronization traffic:
// a window containing one synchronization can exceed the budget a
// hundredfold while most windows carry only monitoring state.
type AdaptiveTheta struct {
	// Inner is the wrapped FDA variant (SketchFDA or LinearFDA). Its
	// Theta field is overwritten by the controller.
	Inner Strategy
	// BudgetBytesPerStep is the target average communication per global
	// step, totalled across workers.
	BudgetBytesPerStep float64
	// Window is the adjustment period in steps (default 25).
	Window int
	// Gain is the multiplicative step (default 1.5).
	Gain float64
	// MinTheta and MaxTheta clamp the controller (defaults: Θ0/64, Θ0·64).
	MinTheta, MaxTheta float64

	setTheta   func(float64)
	getTheta   func() float64
	thetaTrace []float64
}

// NewAdaptiveTheta wraps inner (which must be *SketchFDA or *LinearFDA)
// with a bandwidth-budget controller.
func NewAdaptiveTheta(inner Strategy, budgetBytesPerStep float64) *AdaptiveTheta {
	a := &AdaptiveTheta{
		Inner:              inner,
		BudgetBytesPerStep: budgetBytesPerStep,
		Window:             25,
		Gain:               1.5,
	}
	switch s := inner.(type) {
	case *SketchFDA:
		a.setTheta = func(t float64) { s.Theta = t }
		a.getTheta = func() float64 { return s.Theta }
	case *LinearFDA:
		a.setTheta = func(t float64) { s.Theta = t }
		a.getTheta = func() float64 { return s.Theta }
	default:
		panic(fmt.Sprintf("core: AdaptiveTheta cannot wrap %T", inner))
	}
	return a
}

// Name implements Strategy.
func (a *AdaptiveTheta) Name() string { return "Adaptive" + a.Inner.Name() }

// Init implements Strategy.
func (a *AdaptiveTheta) Init(env *Env) {
	if a.BudgetBytesPerStep <= 0 {
		panic("core: AdaptiveTheta requires a positive bandwidth budget")
	}
	if a.Window <= 0 {
		a.Window = 25
	}
	if a.Gain <= 1 {
		a.Gain = 1.5
	}
	t0 := a.getTheta()
	if t0 <= 0 {
		t0 = 1
		a.setTheta(t0)
	}
	if a.MinTheta == 0 {
		a.MinTheta = t0 / 64
	}
	if a.MaxTheta == 0 {
		a.MaxTheta = t0 * 64
	}
	a.Inner.Init(env)
}

// AfterLocalStep implements Strategy.
func (a *AdaptiveTheta) AfterLocalStep(env *Env, t int) {
	a.Inner.AfterLocalStep(env, t)
	if t%a.Window != 0 {
		return
	}
	rate := float64(env.Fabric.Meter().TotalBytes()) / float64(t)

	theta := a.getTheta()
	switch {
	case rate > a.BudgetBytesPerStep:
		theta *= a.Gain
	case rate < a.BudgetBytesPerStep/a.Gain:
		// Comfortably under budget: spend some of it on tighter sync.
		theta /= a.Gain
	}
	if theta < a.MinTheta {
		theta = a.MinTheta
	}
	if theta > a.MaxTheta {
		theta = a.MaxTheta
	}
	a.setTheta(theta)
	a.thetaTrace = append(a.thetaTrace, theta)
}

// StateSnapshot implements the session checkpoint contract: the live Θ,
// the adjustment trace, then the wrapped variant's own state. The fixed
// two-vector prefix lets RestoreState split the snapshot without knowing
// the trace length in advance.
func (a *AdaptiveTheta) StateSnapshot() ([][]float64, []uint64) {
	vecs := [][]float64{{a.getTheta()}, a.thetaTrace}
	var counters []uint64
	if r, ok := a.Inner.(resumable); ok {
		iv, ic := r.StateSnapshot()
		vecs = append(vecs, iv...)
		counters = ic
	}
	return vecs, counters
}

// RestoreState implements the session checkpoint contract.
func (a *AdaptiveTheta) RestoreState(vecs [][]float64, counters []uint64) error {
	if len(vecs) < 2 || len(vecs[0]) != 1 {
		return fmt.Errorf("core: AdaptiveTheta snapshot shape %d", len(vecs))
	}
	a.setTheta(vecs[0][0])
	a.thetaTrace = append([]float64(nil), vecs[1]...)
	if r, ok := a.Inner.(resumable); ok {
		return r.RestoreState(vecs[2:], counters)
	}
	if len(vecs) > 2 || len(counters) > 0 {
		return fmt.Errorf("core: AdaptiveTheta snapshot carries inner state for a stateless variant")
	}
	return nil
}
