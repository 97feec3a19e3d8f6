// Package fda is the public API of the Federated Dynamic Averaging (FDA)
// library — a Go reproduction of "Communication-Efficient Distributed Deep
// Learning via Federated Dynamic Averaging" (EDBT 2025).
//
// FDA trains a model across K workers and synchronizes them only when the
// model variance across workers exceeds a threshold Θ, estimated each step
// from tiny per-worker states (an AMS sketch for SketchFDA, two scalars
// for LinearFDA) instead of on a fixed schedule. The package re-exports
// the library's building blocks:
//
//   - strategies: NewSketchFDA, NewLinearFDA, NewOracleFDA,
//     NewSynchronous, NewLocalSGD, NewFedAvgMFor/NewFedAdamFor, and
//     NewAsyncFDA for the coordinator-based asynchronous variant, which
//     steps worker by worker on a simulated network's virtual clock,
//   - the session API: NewSession over a Config (a struct literal)
//     returns an incremental, cancellable, checkpointable run with a
//     typed event stream,
//   - the batch trainer: Run/MustRun — thin, bit-identical wrappers over
//     a session,
//   - substrates: neural networks (nn), optimizers (opt), synthetic
//     datasets and heterogeneity partitioners (data), AMS sketches
//     (sketch) and the simulated cluster (comm) through type aliases.
//
// A minimal training run:
//
//	train, test := fda.MNISTLike(1)
//	cfg := fda.Config{
//		K: 8, BatchSize: 32, Seed: 1,
//		Model:     myModelBuilder,
//		Optimizer: fda.NewAdam(1e-3),
//		Train: train, Test: test,
//		TargetAccuracy: 0.95,
//	}
//	res := fda.MustRun(cfg, fda.NewLinearFDA(0.05))
//	fmt.Println(res)
//
// The same run as an observable session:
//
//	sess, err := fda.NewSession(ctx, cfg, fda.NewLinearFDA(0.05))
//	sess.Subscribe(func(e fda.Event) { ... })   // StepEvent, SyncEvent, EvalEvent, DoneEvent
//	res, err = sess.Run()                       // or Step() one step at a time
//
// See examples/ for complete programs (examples/session walks through
// events, cancellation and bit-exact checkpoint resume).
package fda

import (
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/runstore"
	"repro/internal/sketch"
	"repro/internal/tensor"
)

// Core training types.
type (
	// Config describes one training run; see core.Config. Construct it
	// as a struct literal; Validate reports structured per-field errors.
	Config = core.Config
	// FieldError pinpoints one invalid Config field.
	FieldError = core.FieldError
	// ConfigError aggregates every invalid field found by
	// Config.Validate.
	ConfigError = core.ConfigError
	// SilentOptimizerError fails a LinearFDA run whose optimizer does
	// not honour Optimizer.Watch; errors.As finds it in a Session's error.
	SilentOptimizerError = core.SilentOptimizerError
	// Result summarizes a run's cost and quality.
	Result = core.Result
	// Point is one evaluation snapshot of a run.
	Point = core.Point
	// Strategy is a synchronization policy.
	Strategy = core.Strategy
	// ModelBuilder constructs model replicas.
	ModelBuilder = core.ModelBuilder
	// Env is the state strategies operate on (advanced use: custom
	// strategies implement Strategy against it).
	Env = core.Env
)

// Session API: an in-flight training run as an incremental object.
// NewSession validates the config, positions the run before step 1, and
// hands back a Session that callers Step, observe through typed events,
// cancel via the context, and checkpoint with Snapshot/Restore. The
// batch entry points (Run/MustRun) are thin wrappers over the
// same loop, with bit-identical results. See DESIGN.md §8.
type (
	// Session is an incremental, cancellable, resumable training run.
	Session = core.Session
	// Event is the typed progress stream element; concrete variants are
	// StepEvent, SyncEvent, EvalEvent and DoneEvent.
	Event = core.Event
	// StepEvent reports one completed training step.
	StepEvent = core.StepEvent
	// SyncEvent reports one model synchronization (trigger and bytes).
	SyncEvent = core.SyncEvent
	// EvalEvent reports one evaluation of the averaged global model.
	EvalEvent = core.EvalEvent
	// DoneEvent carries the finished run's Result.
	DoneEvent = core.DoneEvent
	// EventSink consumes session events, synchronously on the stepping
	// goroutine.
	EventSink = core.EventSink
)

// Training entry points.
var (
	// NewSession starts an incremental training session under a context.
	NewSession = core.NewSession
	// Run executes a training run under a strategy.
	Run = core.Run
	// RunContext is Run under a context: cancellation stops between
	// steps and surfaces the context's error.
	RunContext = core.RunContext
	// MustRun is Run that panics on configuration errors.
	MustRun = core.MustRun
)

// AutoParallelism, assigned to Config.Parallelism (or any Jobs knob),
// selects runtime.GOMAXPROCS goroutines. Results are bit-identical to a
// sequential run at the same seed — parallel sections write only
// index-addressed per-worker slots and reductions stay in worker order.
const AutoParallelism = core.AutoParallelism

// Strategies.
var (
	// NewSketchFDA returns the AMS-sketch FDA variant (Theorem 3.1).
	NewSketchFDA = core.NewSketchFDA
	// NewLinearFDA returns the two-scalar FDA variant (Theorem 3.2).
	NewLinearFDA = core.NewLinearFDA
	// NewOracleFDA returns the exact-variance ablation strategy.
	NewOracleFDA = core.NewOracleFDA
	// NewSynchronous returns the BSP baseline (sync every step).
	NewSynchronous = core.NewSynchronous
	// NewLocalSGD returns the fixed-τ Local-SGD baseline.
	NewLocalSGD = core.NewLocalSGD
	// NewFedAvgMFor and NewFedAdamFor return the federated optimization
	// baselines with round lengths bound to a config.
	NewFedAvgMFor = core.NewFedAvgMFor
	NewFedAdamFor = core.NewFedAdamFor
	// NewAsyncFDA wraps NewLinearFDA or NewSketchFDA as the asynchronous
	// variant (§3.3): a session steps one worker's local step at a time
	// on the fabric's virtual clock of compute and link time
	// (SpeedsScenario sets the pace over free links), and
	// Result.StepsPerWorker reports each worker's progress.
	NewAsyncFDA = core.NewAsyncFDA
)

// Neural-network stack.
type (
	// Network is a flat-parameter feed-forward network.
	Network = nn.Network
	// Layer is one differentiable network stage.
	Layer = nn.Layer
	// Shape is an activation volume (H, W, C).
	Shape = nn.Shape
)

var (
	// NewNetwork wires layers into a network.
	NewNetwork = nn.New
	// Layer constructors.
	NewDense         = nn.NewDense
	NewConv2D        = nn.NewConv2D
	NewMaxPool2D     = nn.NewMaxPool2D
	NewGlobalAvgPool = nn.NewGlobalAvgPool
	NewReLU          = nn.NewReLU
	NewDropout       = nn.NewDropout
)

// Weight initialization schemes.
const (
	GlorotUniformInit = nn.GlorotUniformInit
	HeNormalInit      = nn.HeNormalInit
)

// Optimizer is a local optimizer. LinearFDA's local state comes only
// from its Watch method, which every later Step must honour: it writes
// the drift sums and adds one to the report count. A watched Step that
// leaves the count where it was, as one of an Optimizer written outside
// this module with a no-op Watch does, fails the run with a
// *SilentOptimizerError naming the optimizer and the worker.
type Optimizer = opt.Optimizer

var (
	// NewSGDNesterov, NewAdam and NewAdamW return the paper's
	// local-optimizer factories.
	NewSGDNesterov = opt.NewSGDNesterov
	NewAdam        = opt.NewAdam
	NewAdamW       = opt.NewAdamW
)

// Data: datasets, generators and partitioners.
type (
	// Dataset is an in-memory classification dataset.
	Dataset = data.Dataset
	// Heterogeneity selects the paper's data-distribution scenarios.
	Heterogeneity = data.Heterogeneity
	// SyntheticConfig parameterizes the synthetic task generator.
	SyntheticConfig = data.SyntheticConfig
)

var (
	// Synthetic generates a task from a config; MNISTLike/CIFAR10Like/
	// CIFAR100Like are the presets used by the experiments.
	Synthetic     = data.Synthetic
	MNISTLike     = data.MNISTLike
	CIFAR10Like   = data.CIFAR10Like
	CIFAR100Like  = data.CIFAR100Like
	FitNormalizer = data.FitNormalizer
	// IID, NonIIDPercent and NonIIDLabel name the paper's heterogeneity
	// scenarios.
	IID           = data.IID
	NonIIDPercent = data.NonIIDPercent
	NonIIDLabel   = data.NonIIDLabel
)

// Sketches (exposed for advanced monitoring uses).
type (
	// Sketcher carries shared AMS hash functions.
	Sketcher = sketch.Sketcher
	// Sketch is an l×m AMS sketch.
	Sketch = sketch.Sketch
)

var (
	// NewSketcher builds a sketcher; M2 estimates a squared norm.
	NewSketcher = sketch.NewSketcher
	M2          = sketch.M2
)

// Communication substrate: the pluggable fabric and its backends. The
// same training loop runs bit-identically on every fabric; only cost
// and time accounting differ (DESIGN.md §9).
type (
	// Fabric is the pluggable communication backend (assign with
	// Config.Fabric or WithFabric).
	Fabric = comm.Fabric
	// CostReport is the per-collective accounting a fabric returns.
	CostReport = comm.CostReport
	// CostModel controls byte accounting of collectives.
	CostModel = comm.CostModel
	// NetworkProfile translates bytes to wall-time estimates.
	NetworkProfile = comm.NetworkProfile
	// LinkProfile models one worker's link and compute speed in a
	// simulated-network scenario.
	LinkProfile = comm.LinkProfile
	// Scenario describes a heterogeneous deployment for the simulated
	// fabric (per-link profiles, straggler schedule, step compute time).
	Scenario = comm.Scenario
)

var (
	// DefaultCostModel matches the paper's accounting.
	DefaultCostModel = comm.DefaultCostModel
	// Network profiles of Figure 12.
	ProfileFL       = comm.ProfileFL
	ProfileBalanced = comm.ProfileBalanced
	ProfileHPC      = comm.ProfileHPC
	// NewSimFabric builds the simulated-network fabric: reference math
	// plus a deterministic virtual clock, so Results report estimated
	// wall-clock time-to-accuracy (Result.VirtualSec).
	NewSimFabric = comm.NewSimFabric
	// Canned deployment scenarios for NewSimFabric, also addressable by
	// name through ScenarioByName.
	ScenarioLAN       = comm.ScenarioLAN
	ScenarioFedWAN    = comm.ScenarioFedWAN
	ScenarioStraggler = comm.ScenarioStraggler
	ScenarioByName    = comm.ScenarioByName
	// SpeedsScenario builds a scenario from relative worker speeds with
	// free communication, the pace of an asynchronous run's workers.
	SpeedsScenario = comm.SpeedsScenario
)

// Model zoo (the scaled Table 2 architectures).
type ModelSpec = models.Spec

var (
	// ModelCatalog lists the zoo; ModelByName fetches one entry.
	ModelCatalog = models.Catalog
	ModelByName  = models.ByName
	// DatasetForModel generates a spec's workload.
	DatasetForModel = models.DatasetFor
	// Pretrain produces centrally trained weights (transfer learning).
	Pretrain = models.Pretrain
	// WithInit starts every replica from fixed weights.
	WithInit = models.WithInit
)

// Checkpointing (model snapshots with CRC-verified binary encoding).
type Snapshot = checkpoint.Snapshot

var (
	// SaveCheckpoint and LoadCheckpoint persist snapshots atomically.
	SaveCheckpoint = checkpoint.Save
	LoadCheckpoint = checkpoint.Load
)

// Run registry: the content-addressed result store behind fdaexp -store
// and fdaserve. Results are keyed by the hash of a canonical RunSpec;
// because runs are bit-identical in their spec at any parallelism, a
// cached result is interchangeable with a fresh computation.
type (
	// RunStore is a content-addressed store of experiment records.
	RunStore = runstore.Store
	// RunSpec canonically identifies one run (parallelism-independent
	// fields only); RunSpec.Hash is its content address.
	RunSpec = runstore.Spec
	// RunManifest describes one stored run.
	RunManifest = runstore.Manifest
)

// OpenStore opens (creating as needed) a run registry rooted at a
// directory.
var OpenStore = runstore.Open

// Cached reports whether st already holds verified records for spec —
// i.e. whether resubmitting spec would be served from cache.
func Cached(st *RunStore, spec RunSpec) bool { return st.Contains(spec) }

// RNG re-exports the deterministic generator used throughout.
type RNG = tensor.RNG

// NewRNG returns a seeded deterministic generator.
var NewRNG = tensor.NewRNG
