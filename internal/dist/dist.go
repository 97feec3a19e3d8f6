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
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
)

// JobSpec is the one definition of a train job: the fdarun flag
// surface, the POST /v1/train body, the payload the coordinator hands
// every worker at rank assignment, and the input of the dedupe key
// fdaserve and the fdagate affinity router share. Every field is
// deterministic input, so two processes holding equal specs build
// bit-identical cluster state. A body becomes a JobSpec only through
// ParseJobSpec.
type JobSpec struct {
	// Model is a zoo model name (lenet5s, vgg16s, ...). Required.
	Model string `json:"model"`
	// Strategy is the synchronization policy name. Required.
	Strategy string `json:"strategy"`
	// Theta is the FDA variance threshold; 0 selects the model's default
	// grid entry. Only LinearFDA, SketchFDA and OracleFDA read it: a
	// parsed spec of any other strategy holds 0 here.
	Theta float64 `json:"theta,omitempty"`
	// Tau is LocalSGD's round length in steps; 0 selects 10, and a
	// negative value is refused for every strategy. Only LocalSGD reads
	// it: a parsed spec of any other strategy holds 0 here.
	Tau int `json:"tau,omitempty"`
	// K, Batch, Steps, EvalEvery, Target, Het, Seed mirror core.Config.
	// Het is in data.ParseHeterogeneity's grammar; WithDefaults rewrites
	// it to its canonical spelling (data.Heterogeneity.Selector).
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
	s.Tau = cmp.Or(s.Tau, 10)
	s.K = cmp.Or(s.K, 5)
	s.Batch = cmp.Or(s.Batch, 32)
	s.Steps = cmp.Or(s.Steps, 200)
	s.EvalEvery = cmp.Or(s.EvalEvery, 20)
	// Every spelling of one scenario (pct60, pct60.0, pct6e1) is one
	// job: print the canonical one. An unparsable Het is left for
	// Validate to refuse.
	if het, err := data.ParseHeterogeneity(s.Het); err == nil {
		s.Het = het.Selector()
	}
	s.Seed = cmp.Or(s.Seed, 1)
	return s
}

// DecodeStrict decodes one JSON value from r into v strictly: a field v
// does not have, at any depth (a misspelling, or one an older or newer
// client sends), and any data after the value are errors, so a request
// or a spec file never silently means something other than it says.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("trailing data after the JSON value")
	}
	return err
}

// ParseJobSpec is the one reader of a train body: the POST /v1/train
// request fdaserve admits and fdagate routes, the payload a worker
// receives and the body fdaload generates. It decodes strictly, requires
// a model and a strategy, fills the defaults and validates; the spec it
// returns is canonical, holding zero in each strategy parameter its
// strategy does not read (strategies), so a field the run ignores never
// splits one run into two keys.
func ParseJobSpec(body []byte) (JobSpec, error) {
	var s JobSpec
	if err := DecodeStrict(bytes.NewReader(body), &s); err != nil {
		return JobSpec{}, fmt.Errorf("invalid JSON body: %w", err)
	}
	if s.Model == "" || s.Strategy == "" {
		return JobSpec{}, errors.New("model and strategy are required")
	}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	reads := strategies[s.Strategy]
	if !reads.theta {
		s.Theta = 0
	}
	if !reads.tau {
		s.Tau = 0
	}
	return s, nil
}

// Key returns the dedupe key of a parsed spec (ParseJobSpec): the string
// fdaserve registers the job under, addresses its result and resume
// checkpoint by, and fdagate hashes for affinity routing.
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
		return core.Config{}, spec, &core.ConfigError{Fields: []core.FieldError{{Field: "Het", Msg: err.Error()}}}
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
// path): unknown model or strategy names, every invalid Config field, an
// unknown or out-of-range Het (a label outside the model's classes, more
// label holders than K, a percent outside [0, 100]) and a negative Tau
// (a *core.ConfigError), and strategy parameters core.NewSession would
// refuse (a negative Θ) are rejected here, so none of them can surface
// later as a failed job or a panic.
func (s JobSpec) Validate() error {
	cfg, spec, err := s.config()
	if err != nil {
		return err
	}
	// DatasetFor never yields an empty set for a zoo spec, so Train/Test
	// cannot actually be invalid; the empty placeholder is for the FedOpt
	// constructors, which read Train's length, and the Het check, which
	// reads its label arity.
	cfg.Train = &data.Dataset{NumClasses: spec.Classes}
	var fields []core.FieldError
	var cerr *core.ConfigError
	if errors.As(cfg.Validate(), &cerr) {
		for _, f := range cerr.Fields {
			if f.Field != "Train" && f.Field != "Test" {
				fields = append(fields, f)
			}
		}
	}
	if s.Tau < 0 {
		fields = append(fields, core.FieldError{Field: "Tau", Msg: fmt.Sprintf("must be non-negative, got %d", s.Tau)})
	}
	if len(fields) > 0 {
		return &core.ConfigError{Fields: fields}
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
// their round length to cfg.
func (s JobSpec) BuildStrategy(cfg core.Config) (core.Strategy, error) {
	return StrategyFor(s.Strategy, s.Theta, s.Tau, cfg)
}

// strategies is the repo's one strategy-name index: fdarun, fdaserve,
// the distributed workers and the experiment runners all resolve names
// here. theta and tau say which of a spec's strategy parameters the
// strategy reads; ParseJobSpec zeroes the others.
var strategies = map[string]struct {
	theta, tau bool
	build      func(theta float64, tau int, cfg core.Config) core.Strategy
}{
	"LinearFDA":   {theta: true, build: func(theta float64, _ int, _ core.Config) core.Strategy { return core.NewLinearFDA(theta) }},
	"SketchFDA":   {theta: true, build: func(theta float64, _ int, _ core.Config) core.Strategy { return core.NewSketchFDA(theta) }},
	"OracleFDA":   {theta: true, build: func(theta float64, _ int, _ core.Config) core.Strategy { return core.NewOracleFDA(theta) }},
	"LocalSGD":    {tau: true, build: func(_ float64, tau int, _ core.Config) core.Strategy { return core.NewLocalSGD(tau) }},
	"Synchronous": {build: func(float64, int, core.Config) core.Strategy { return core.NewSynchronous() }},
	"FedAvgM":     {build: func(_ float64, _ int, cfg core.Config) core.Strategy { return core.NewFedAvgMFor(cfg) }},
	"FedAdam":     {build: func(_ float64, _ int, cfg core.Config) core.Strategy { return core.NewFedAdamFor(cfg) }},
}

// StrategyFor builds the named strategy from the index.
func StrategyFor(name string, theta float64, tau int, cfg core.Config) (core.Strategy, error) {
	st, ok := strategies[name]
	if !ok {
		return nil, fmt.Errorf("dist: unknown strategy %q", name)
	}
	return st.build(theta, tau, cfg), nil
}
