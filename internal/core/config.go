// Package core implements the paper's contribution — Federated Dynamic
// Averaging (Algorithm 1) with its SketchFDA and LinearFDA variants — plus
// every distributed training baseline the paper evaluates against:
// Synchronous (BSP), Local-SGD with fixed τ, FedAvgM and FedAdam.
//
// A training run wires K simulated workers (each with its own model
// replica, optimizer state and data shard) to a metered AllReduce fabric
// and executes lock-step global iterations: one local Optimize per worker
// per step, followed by the strategy's synchronization decision. All
// strategies share the trainer loop; they differ only in their
// AfterLocalStep hook, mirroring the paper's observation that FDA changes
// *when* synchronization happens, not *what* is synchronized.
package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// ModelBuilder constructs a fresh, randomly initialized network replica.
// Each worker calls it once; the trainer then overwrites every replica's
// parameters with a shared w0 so all workers start from the same global
// model, as Algorithm 1 requires. The builder's rng drives any stochastic
// layers (dropout) of that replica.
type ModelBuilder func(rng *tensor.RNG) *nn.Network

// Config describes one training run.
type Config struct {
	// K is the number of workers.
	K int
	// BatchSize is the local mini-batch size b.
	BatchSize int
	// Seed drives every random choice of the run (init, partition,
	// sampling, dropout, sketches). Identical configs reproduce bit-equal
	// results.
	Seed uint64
	// Model builds worker replicas.
	Model ModelBuilder
	// Optimizer builds each worker's local optimizer.
	Optimizer opt.Factory
	// Train and Test are the global datasets; Train is partitioned across
	// workers according to Het.
	Train, Test *data.Dataset
	// Het selects the data-heterogeneity scenario (default IID).
	Het data.Heterogeneity
	// Fabric is the communication backend the run executes on. Nil
	// selects the in-process reference cluster (comm.NewCluster); a
	// comm.SimFabric adds a deterministic virtual clock (time-to-accuracy
	// estimates); a comm.TCPFabric places this process's workers in a
	// multi-process cluster. Training math is bit-identical across
	// fabrics — only cost/time accounting differs (DESIGN.md §9). A
	// non-nil fabric must agree with K; when it owns only a subset of
	// ranks (TCP), this process builds and steps only those workers.
	Fabric comm.Fabric
	// MaxSteps caps the in-parallel learning steps (safety bound); an
	// asynchronous FDA run takes MaxSteps·K worker steps in all.
	MaxSteps int
	// TargetAccuracy ends the run once the global model's test accuracy
	// reaches it ("training run" in the paper's evaluation methodology).
	// Zero disables early stopping.
	TargetAccuracy float64
	// EvalEvery is the step interval between test-accuracy evaluations
	// (default 20). Evaluation reads the averaged global model and is not
	// charged as communication.
	EvalEvery int
	// RecordTrainAccuracy additionally evaluates training accuracy at each
	// evaluation point (needed by the Figure 7 generalization-gap plot).
	RecordTrainAccuracy bool
	// Parallelism caps the goroutines used for the per-step worker loop,
	// the strategies' per-worker drift/state computations and accuracy
	// evaluation. 0 (the zero value) and 1 run sequentially; positive
	// values are taken literally; AutoParallelism (any negative value)
	// selects runtime.GOMAXPROCS. It is a cap, not an allocation: each
	// call runs at the width the process's core budget grants it then
	// (internal/par). Results are bit-identical across all settings and
	// widths: parallel sections write only index-addressed slots and
	// every floating-point reduction stays in worker order.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.EvalEvery == 0 {
		c.EvalEvery = 20
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 10000
	}
	return c
}

// FieldError pinpoints one invalid Config field.
type FieldError struct {
	// Field is the Config field name (e.g. "K", "Train").
	Field string `json:"field"`
	// Msg explains what is wrong with its value.
	Msg string `json:"msg"`
}

// Error implements error.
func (e FieldError) Error() string { return "core: Config." + e.Field + ": " + e.Msg }

// ConfigError aggregates every invalid field found by Config.Validate,
// so callers (CLI flag parsing, the fdaserve submit endpoint) can report
// all problems at once instead of the first.
type ConfigError struct {
	Fields []FieldError
}

// Error implements error.
func (e *ConfigError) Error() string {
	msg := "core: invalid Config:"
	for i, f := range e.Fields {
		if i > 0 {
			msg += ";"
		}
		msg += " " + f.Field + ": " + f.Msg
	}
	return msg
}

// Validate checks every field of the config and returns nil or a
// *ConfigError listing each invalid field. Zero values that withDefaults
// fills (EvalEvery, MaxSteps) are valid; negative ones are not.
// Run and NewSession validate through here, so a config
// rejected at submission time can never surface later as a panic inside
// the training loop.
func (c Config) Validate() error {
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	if c.K <= 0 {
		add("K", "must be positive, got %d", c.K)
	}
	if c.BatchSize <= 0 {
		add("BatchSize", "must be positive, got %d", c.BatchSize)
	}
	if c.Model == nil {
		add("Model", "builder is required")
	}
	if c.Optimizer == nil {
		add("Optimizer", "factory is required")
	}
	if c.Train == nil || c.Train.Len() == 0 {
		add("Train", "training set is empty")
	}
	if c.Test == nil || c.Test.Len() == 0 {
		add("Test", "test set is empty")
	}
	if c.Train != nil && c.K > 0 {
		if err := c.Het.Check(c.Train.NumClasses, c.K); err != nil {
			add("Het", "%v", err)
		}
	}
	if c.MaxSteps < 0 {
		add("MaxSteps", "must be non-negative, got %d", c.MaxSteps)
	}
	if c.EvalEvery < 0 {
		add("EvalEvery", "must be non-negative, got %d", c.EvalEvery)
	}
	if c.TargetAccuracy < 0 {
		// Targets above 1 are legal: they mean "never stop early" (the
		// experiments use them to force full-budget runs).
		add("TargetAccuracy", "must be non-negative, got %v", c.TargetAccuracy)
	}
	if c.Fabric != nil && c.K > 0 && c.Fabric.K() != c.K {
		add("Fabric", "spans %d workers, config has K=%d", c.Fabric.K(), c.K)
	}
	if len(fields) == 0 {
		return nil
	}
	return &ConfigError{Fields: fields}
}

// Point is one evaluation snapshot along a run.
type Point struct {
	Step      int
	Epoch     float64
	TestAcc   float64
	TrainAcc  float64 // only when Config.RecordTrainAccuracy
	CommBytes int64
	SyncCount int
	// VirtualSec is the fabric's virtual clock at this point (estimated
	// wall-clock seconds: compute + communication under the network
	// scenario). Zero unless the run executes on a time-modeling fabric.
	VirtualSec float64 `json:",omitempty"`
}

// Result summarizes a training run; its fields are the paper's evaluation
// metrics.
type Result struct {
	Strategy string
	// Steps is the number of in-parallel learning steps each worker
	// performed (the paper's computation-cost metric); under asynchronous
	// FDA, the most any worker performed.
	Steps int
	// StepsPerWorker is each worker's local step count under asynchronous
	// FDA; nil in lock-step runs, where every worker performed Steps.
	StepsPerWorker []int `json:",omitempty"`
	// Epochs is the training samples consumed (Steps·b·K in lock-step
	// runs) divided by the training-set size.
	Epochs float64
	// CommBytes is the total data transmitted by all workers (the paper's
	// communication-cost metric), split into monitoring state and model
	// synchronization traffic.
	CommBytes  int64
	StateBytes int64
	ModelBytes int64
	// SyncCount is how many model synchronizations were triggered.
	SyncCount int
	// FinalTestAcc is the global model's test accuracy when the run ended;
	// ReachedTarget reports whether TargetAccuracy was attained within
	// MaxSteps.
	FinalTestAcc  float64
	ReachedTarget bool
	// VirtualSec is the fabric's virtual clock when the run ended — the
	// estimated wall-clock time-to-accuracy under the simulated network
	// scenario. Zero unless the run executes on a time-modeling fabric.
	VirtualSec float64 `json:",omitempty"`
	// History holds the evaluation trace.
	History []Point
}

// CommGB returns the communication cost in gigabytes, the unit of the
// paper's figures.
func (r Result) CommGB() float64 { return float64(r.CommBytes) / 1e9 }

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: steps=%d epochs=%.1f comm=%.3fGB (state %.3f, model %.3f) syncs=%d acc=%.4f target=%v",
		r.Strategy, r.Steps, r.Epochs, r.CommGB(),
		float64(r.StateBytes)/1e9, float64(r.ModelBytes)/1e9,
		r.SyncCount, r.FinalTestAcc, r.ReachedTarget)
}
