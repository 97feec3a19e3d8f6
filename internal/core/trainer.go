package core

import "context"

// Strategy is a synchronization policy plugged into the shared trainer
// loop. Implementations decide, after every lock-step local update, whether
// (and how) to synchronize the workers' models.
type Strategy interface {
	// Name identifies the strategy in results and figures.
	Name() string
	// Init is called once, after workers are built and before step 1.
	Init(env *Env)
	// AfterLocalStep is called at global step t (1-based) after every
	// worker has performed one local Optimize step.
	AfterLocalStep(env *Env, t int)
}

// ValidateStrategy reports a strategy whose parameters cannot run: a
// negative Θ, or asynchronous FDA over anything but LinearFDA or
// SketchFDA. NewSession refuses what it reports, and dist.JobSpec's
// Validate reports it at admission.
func ValidateStrategy(s Strategy) error {
	if v, ok := s.(interface{ validate() error }); ok {
		return v.validate()
	}
	return nil
}

// Run executes one training run of cfg under the given strategy and
// returns its cost/quality summary. Runs are deterministic in (cfg, s).
//
// Run is a thin wrapper over Session: it builds one and drives it to
// completion, producing a Result bit-identical to stepping the session
// manually (or to the pre-session trainer loop — the parity tests pin
// this).
func Run(cfg Config, s Strategy) (Result, error) {
	return RunContext(context.Background(), cfg, s)
}

// RunContext is Run under a context: cancellation stops the run between
// global steps and returns the context's error alongside the partial
// Result accumulated so far.
func RunContext(ctx context.Context, cfg Config, s Strategy) (Result, error) {
	sess, err := NewSession(ctx, cfg, s)
	if err != nil {
		return Result{}, err
	}
	return sess.Run()
}

// MustRun is Run for tests and examples where a config error is a bug.
func MustRun(cfg Config, s Strategy) Result {
	r, err := Run(cfg, s)
	if err != nil {
		panic(err)
	}
	return r
}
