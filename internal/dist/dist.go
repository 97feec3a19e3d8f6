// Package dist implements multi-process distributed training on the
// TCP fabric: the serializable job spec every process builds its
// replicated configuration from, the worker driver behind
// `fdarun -worker -connect`, and the coordinator driver behind
// `fdaserve`'s distributed train jobs and `fdarun -coordinator`.
//
// The execution model is replicated SPMD (DESIGN.md §9): the
// coordinator sends the same JobSpec to every worker; each worker
// deterministically derives the full cluster layout (datasets, shards,
// initial model, per-rank RNG streams) from it and steps only its
// assigned rank, meeting the others exclusively through fabric
// collectives. Because reductions are computed from rank-ordered
// contributions with the in-process kernels, every process finishes
// with bit-identical training state and an identical Result — which the
// coordinator verifies before reporting.
package dist

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
)

// JobSpec is the one definition of a train job: the fdarun flag
// surface, the POST /v1/train body, the payload the coordinator hands
// every worker at rank assignment, and the input of the dedupe key
// fdaserve and the fdagate affinity router share. Every field is
// deterministic input, so two processes holding equal specs build
// bit-identical cluster state.
type JobSpec struct {
	// Model is a zoo model name (lenet5s, vgg16s, ...). Required.
	Model string `json:"model"`
	// Strategy is the synchronization policy name. Required.
	Strategy string `json:"strategy"`
	// Theta is the FDA variance threshold; 0 selects the model's default
	// grid entry.
	Theta float64 `json:"theta,omitempty"`
	// Tau is the round length for the schedule-based baselines.
	Tau int `json:"tau,omitempty"`
	// K, Batch, Steps, EvalEvery, Target, Het, Seed mirror core.Config.
	K         int     `json:"k"`
	Batch     int     `json:"batch"`
	Steps     int     `json:"steps"`
	EvalEvery int     `json:"eval_every,omitempty"`
	Target    float64 `json:"target,omitempty"`
	Het       string  `json:"het,omitempty"`
	Seed      uint64  `json:"seed"`
	// Distributed asks fdaserve to coordinate the job across K worker
	// processes on its TCP fabric instead of training in-process.
	Distributed bool `json:"distributed,omitempty"`
}

// WithDefaults fills the documented zero-value defaults.
func (s JobSpec) WithDefaults() JobSpec {
	// JSON can spell zero as -0; it is the same job and must print the
	// same key (x+0 is +0 for either zero, x otherwise).
	s.Theta, s.Target = s.Theta+0, s.Target+0
	if s.Theta == 0 {
		if spec, err := models.ByName(s.Model); err == nil && len(spec.ThetaGrid) > 1 {
			s.Theta = spec.ThetaGrid[1]
		}
	}
	if s.Tau == 0 {
		s.Tau = 10
	}
	if s.K == 0 {
		s.K = 5
	}
	if s.Batch == 0 {
		s.Batch = 32
	}
	if s.Steps == 0 {
		s.Steps = 200
	}
	if s.EvalEvery == 0 {
		s.EvalEvery = 20
	}
	if s.Het == "" {
		s.Het = "iid"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Key returns the canonical dedupe key of a defaulted spec: the string
// fdaserve registers the job under, addresses its resume checkpoint by,
// and fdagate hashes for affinity routing.
func (s JobSpec) Key() string {
	key := fmt.Sprintf("train|%s|%s|%g|%d|%d|%d|%d|%d|%g|%s|%d",
		s.Model, s.Strategy, s.Theta, s.Tau, s.K, s.Batch, s.Steps, s.EvalEvery, s.Target, s.Het, s.Seed)
	if s.Distributed {
		// Distributed jobs never share resume checkpoints with local
		// ones, so they dedupe under their own key space.
		key += "|dist"
	}
	return key
}

// config is BuildConfig without the datasets: model looked up,
// heterogeneity parsed.
func (s JobSpec) config() (core.Config, models.Spec, error) {
	spec, err := models.ByName(s.Model)
	if err != nil {
		return core.Config{}, spec, err
	}
	het, err := data.ParseHeterogeneity(s.Het)
	if err != nil {
		return core.Config{}, spec, err
	}
	cfg := core.Config{
		K: s.K, BatchSize: s.Batch, Seed: s.Seed,
		Model: spec.Build, Optimizer: spec.Optimizer,
		Het:            het,
		MaxSteps:       s.Steps,
		EvalEvery:      s.EvalEvery,
		TargetAccuracy: s.Target,
	}
	return cfg, spec, nil
}

// Validate vets a spec at admission without synthesizing its datasets
// (hundreds of milliseconds BuildConfig pays later, off the request
// path): unknown model, heterogeneity or strategy names, every invalid
// Config field (a *core.ConfigError) and strategy parameters
// core.NewSession would refuse (a negative Θ) are rejected here, so none
// of them can surface later as a failed job.
func (s JobSpec) Validate() error {
	cfg, _, err := s.config()
	if err != nil {
		return err
	}
	// DatasetFor never yields an empty set for a zoo spec, so Train/Test
	// cannot actually be invalid; the empty placeholder is for the FedOpt
	// constructors, which read Train's length.
	cfg.Train = &data.Dataset{}
	var cerr *core.ConfigError
	if errors.As(cfg.Validate(), &cerr) {
		fields := cerr.Fields[:0:0]
		for _, f := range cerr.Fields {
			if f.Field != "Train" && f.Field != "Test" {
				fields = append(fields, f)
			}
		}
		if len(fields) > 0 {
			return &core.ConfigError{Fields: fields}
		}
	}
	strat, err := s.BuildStrategy(cfg)
	if err != nil {
		return err
	}
	return core.ValidateStrategy(strat)
}

// BuildConfig materializes the replicated core.Config (datasets
// generated, heterogeneity parsed). The caller still
// sets Fabric and Parallelism — the two knobs that are process-local by
// design.
func (s JobSpec) BuildConfig() (core.Config, error) {
	cfg, spec, err := s.config()
	if err != nil {
		return core.Config{}, err
	}
	cfg.Train, cfg.Test = models.DatasetFor(spec, s.Seed)
	return cfg, nil
}

// BuildStrategy constructs the named strategy. FedOpt variants bind
// their round length to cfg; PostLocal switches at a quarter of the
// step budget, matching the fdarun CLI convention.
func (s JobSpec) BuildStrategy(cfg core.Config) (core.Strategy, error) {
	return StrategyFor(s.Strategy, s.Theta, s.Tau, cfg)
}

// StrategyFor is the repo's one strategy-name index: fdarun, fdaserve,
// the distributed workers and the experiment runners all resolve names
// here.
func StrategyFor(name string, theta float64, tau int, cfg core.Config) (core.Strategy, error) {
	switch name {
	case "LinearFDA":
		return core.NewLinearFDA(theta), nil
	case "SketchFDA":
		return core.NewSketchFDA(theta), nil
	case "OracleFDA":
		return core.NewOracleFDA(theta), nil
	case "Synchronous":
		return core.NewSynchronous(), nil
	case "LocalSGD":
		return core.NewLocalSGD(tau), nil
	case "IncTau":
		return core.NewIncreasingTauLocalSGD(tau, 2), nil
	case "DecTau":
		return core.NewDecreasingTauLocalSGD(tau, 2), nil
	case "PostLocal":
		return core.NewPostLocalSGD(cfg.MaxSteps/4, tau), nil
	case "LAG":
		return core.NewLAG(tau, 0.5), nil
	case "FedAvg":
		return core.NewFedAvgFor(cfg, 1), nil
	case "FedAvgM":
		return core.NewFedAvgMFor(cfg, 1), nil
	case "FedAdam":
		return core.NewFedAdamFor(cfg, 1), nil
	default:
		return nil, fmt.Errorf("dist: unknown strategy %q", name)
	}
}
