package core

import (
	"fmt"

	"repro/internal/opt"
	"repro/internal/tensor"
)

// Synchronous is the bulk-synchronous-parallel baseline: the models are
// AllReduce-averaged after every learning step. The paper notes it is the
// Θ=0 special case of Algorithm 1 (footnote 3); no monitoring state is
// needed because synchronization is unconditional.
type Synchronous struct{}

// NewSynchronous returns the BSP baseline.
func NewSynchronous() *Synchronous { return &Synchronous{} }

// Name implements Strategy.
func (s *Synchronous) Name() string { return "Synchronous" }

// Init implements Strategy.
func (s *Synchronous) Init(_ *Env) {}

// AfterLocalStep implements Strategy.
//
//fda:noalloc
func (s *Synchronous) AfterLocalStep(env *Env, _ int) { env.SyncModels() }

// LocalSGD synchronizes every Tau steps regardless of training state —
// the fixed-schedule family FDA argues against (related work §2).
type LocalSGD struct {
	Tau int
}

// NewLocalSGD returns the fixed-τ Local-SGD baseline.
func NewLocalSGD(tau int) *LocalSGD {
	if tau <= 0 {
		panic(fmt.Sprintf("core: LocalSGD τ = %d", tau))
	}
	return &LocalSGD{Tau: tau}
}

// Name implements Strategy.
func (l *LocalSGD) Name() string { return fmt.Sprintf("LocalSGD(τ=%d)", l.Tau) }

// Init implements Strategy.
func (l *LocalSGD) Init(_ *Env) {}

// AfterLocalStep implements Strategy.
//
//fda:noalloc
func (l *LocalSGD) AfterLocalStep(env *Env, t int) {
	if t%l.Tau == 0 {
		env.SyncModels()
	}
}

// FedOpt is the federated-optimization family (Reddi et al.): workers run
// one local epoch between rounds (the paper's E = 1); at a round boundary
// the server forms the pseudo-gradient Δ = w_t0 − w̄ (the negated average
// local progress) and applies a server optimizer to the global model,
// which is then broadcast.
//
//   - Server SGD with momentum 0.9       ⇒ FedAvgM (paper's baseline for
//     the SGD-NM experiments)
//   - Server Adam                        ⇒ FedAdam (baseline for the Adam
//     experiments)
//
// Communication per round is one model AllReduce, identical in size to an
// FDA synchronization; FedOpt simply spaces them on a fixed schedule.
type FedOpt struct {
	name string
	// ServerOpt updates the global model from the pseudo-gradient.
	ServerOpt opt.Optimizer

	roundSteps int // steps per round, derived from shard sizes
	global     []float64
	pseudoGrad []float64
	mean       []float64
	views      [][]float64
	broadcast  func(i int, w *Worker)
}

// NewFedAvgMFor returns FedAvgM: server SGD with momentum, at the
// paper's server settings (momentum 0.9, learning rate 0.316).
func NewFedAvgMFor(cfg Config) *FedOpt {
	return newFedOpt("FedAvgM", &opt.Momentum{LR: 0.316, Mu: 0.9}, cfg)
}

// NewFedAdamFor returns FedAdam: server Adam with the reference defaults
// (lr 1e-2, τ-adaptivity via epsilon 1e-3 as in Reddi et al.).
func NewFedAdamFor(cfg Config) *FedOpt {
	return newFedOpt("FedAdam", &opt.Adam{LR: 1e-2, Beta1: 0.9, Beta2: 0.999, Eps: 1e-3}, cfg)
}

// newFedOpt binds the round length to cfg so one round spans one full
// epoch of the worker shards: ⌈shardSize/b⌉ lock-step iterations with
// shardSize = |train|/K, at least one.
func newFedOpt(name string, server opt.Optimizer, cfg Config) *FedOpt {
	shard := max(cfg.Train.Len()/cfg.K, 1)
	return &FedOpt{name: name, ServerOpt: server, roundSteps: (shard + cfg.BatchSize - 1) / cfg.BatchSize}
}

// Name implements Strategy.
func (f *FedOpt) Name() string { return f.name }

// Init implements Strategy.
func (f *FedOpt) Init(env *Env) {
	f.global = tensor.Clone(env.W0)
	f.pseudoGrad = make([]float64, env.D)
	f.mean = make([]float64, env.D)
	f.views = make([][]float64, len(env.Workers))
	for i, w := range env.Workers {
		f.views[i] = w.Net.Params()
	}
	f.broadcast = func(_ int, w *Worker) {
		w.Net.SetParams(f.global)
		w.Opt.Reset() // local optimizer state restarts each round
	}
	f.ServerOpt.Reset()
}

// StateSnapshot implements the session checkpoint contract: the server's
// global model plus the server optimizer's state (momentum or Adam
// moments), which is what distinguishes a round boundary mid-run from
// one at initialization.
func (f *FedOpt) StateSnapshot() ([][]float64, []uint64) {
	vecs := [][]float64{f.global}
	var counters []uint64
	if s, ok := f.ServerOpt.(opt.Snapshotter); ok {
		sv, sc := s.StateSnapshot()
		vecs = append(vecs, sv...)
		counters = sc
	}
	return vecs, counters
}

// RestoreState implements the session checkpoint contract.
func (f *FedOpt) RestoreState(vecs [][]float64, counters []uint64) error {
	if len(vecs) < 1 {
		return fmt.Errorf("core: FedOpt snapshot carries no global model")
	}
	if len(vecs[0]) != len(f.global) {
		return fmt.Errorf("core: FedOpt global length %d, want %d", len(vecs[0]), len(f.global))
	}
	copy(f.global, vecs[0])
	if s, ok := f.ServerOpt.(opt.Snapshotter); ok {
		return s.RestoreState(vecs[1:], counters)
	}
	if len(vecs) > 1 || len(counters) > 0 {
		return fmt.Errorf("core: FedOpt snapshot carries server state for a stateless server optimizer")
	}
	return nil
}

// AfterLocalStep implements Strategy.
func (f *FedOpt) AfterLocalStep(env *Env, t int) {
	if t%f.roundSteps != 0 {
		return
	}
	// Round boundary: aggregate local models (one metered model AllReduce),
	// then apply the server update on the global model and broadcast.
	env.Fabric.AllReduceMean("model", f.mean, f.views)

	// Pseudo-gradient Δ = w_global − w̄; server step moves the global
	// model along −Δ scaled by its optimizer.
	tensor.Sub(f.pseudoGrad, f.global, f.mean)
	f.ServerOpt.Step(f.global, f.pseudoGrad)

	env.ForEachWorker(f.broadcast)
	env.advanceW0(f.global)
	env.SyncCount++
}
