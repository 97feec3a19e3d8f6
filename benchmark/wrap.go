package main

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/opt"
)

// The decorators below wrap the three exported seams a training
// session is assembled from — comm.Fabric, core.Strategy and
// opt.Optimizer — and record one span per call. They are installed
// only in the traced pass; the untraced pass runs the bare values, so
// the end-to-end numbers carry no decorator cost and the difference
// between the passes is the tracing overhead.

// tracedFabric records one span per collective, named by operation
// kind ("comm.model", "comm.state", "comm.gather", …), and totals the
// CostReports the fabric returns.
type tracedFabric struct {
	comm.Fabric
	lane *lane

	calls        int64 // charged collectives
	chargedBytes int64 // Σ CostReport.Bytes (cluster total, cost model)
	perWorker    int64 // Σ CostReport.PerWorker
	wireBytes    int64 // Σ CostReport.WireBytes (this process, framed)
}

func (f *tracedFabric) note(rep comm.CostReport) comm.CostReport {
	if !f.lane.t.on.Load() {
		return rep
	}
	f.calls++
	f.chargedBytes += rep.Bytes
	f.perWorker += rep.PerWorker
	f.wireBytes += rep.WireBytes
	return rep
}

func (f *tracedFabric) AllReduce(kind string, local [][]float64) comm.CostReport {
	i, _ := f.lane.begin("comm." + kind)
	rep := f.Fabric.AllReduce(kind, local)
	f.lane.end(i)
	return f.note(rep)
}

func (f *tracedFabric) AllReduceMean(kind string, dst []float64, local [][]float64) comm.CostReport {
	i, _ := f.lane.begin("comm." + kind)
	rep := f.Fabric.AllReduceMean(kind, dst, local)
	f.lane.end(i)
	return f.note(rep)
}

func (f *tracedFabric) Broadcast(kind string, root int, local [][]float64) comm.CostReport {
	i, _ := f.lane.begin("comm." + kind)
	rep := f.Fabric.Broadcast(kind, root, local)
	f.lane.end(i)
	return f.note(rep)
}

func (f *tracedFabric) Gather(local [][]float64) [][]float64 {
	i, _ := f.lane.begin("comm.gather")
	out := f.Fabric.Gather(local)
	f.lane.end(i)
	return out
}

func (f *tracedFabric) ExchangeBytes(kind string, local [][]byte) [][]byte {
	i, _ := f.lane.begin("comm." + kind)
	out := f.Fabric.ExchangeBytes(kind, local)
	f.lane.end(i)
	return out
}

// tracedStrategy records one "strategy" span per AfterLocalStep and
// makes it the parent of the collectives issued inside it.
type tracedStrategy struct {
	core.Strategy
	lane *lane
}

func (s *tracedStrategy) AfterLocalStep(env *core.Env, t int) {
	i, id := s.lane.begin("strategy")
	if i < 0 {
		s.Strategy.AfterLocalStep(env, t)
		return
	}
	prev := s.lane.t.cur.Swap(id)
	s.Strategy.AfterLocalStep(env, t)
	s.lane.t.cur.Store(prev)
	s.lane.end(i)
}

// tracedOptimizer records one "opt.step" span per update. Each worker
// owns its optimizer, so each decorator owns its lane. (It hides the
// optimizer's snapshot methods; traced sessions are never snapshotted —
// the snapshot probes run on bare ones.)
type tracedOptimizer struct {
	opt.Optimizer
	lane *lane
}

func (o *tracedOptimizer) Step(params, grads []float64) {
	i, _ := o.lane.begin("opt.step")
	o.Optimizer.Step(params, grads)
	o.lane.end(i)
}

// traceConfig installs the decorators on a session's configuration and
// strategy. The returned fabric handle exposes the cost totals.
func traceConfig(tr *tracer, cfg *core.Config, strat core.Strategy) (core.Strategy, *tracedFabric) {
	fabric := cfg.Fabric
	if fabric == nil {
		fabric = comm.NewClusterWithCost(cfg.K, comm.DefaultCostModel())
	}
	tf := &tracedFabric{Fabric: fabric, lane: tr.newLane()}
	cfg.Fabric = tf
	inner := cfg.Optimizer
	cfg.Optimizer = func() opt.Optimizer {
		return &tracedOptimizer{Optimizer: inner(), lane: tr.newLane()}
	}
	return &tracedStrategy{Strategy: strat, lane: tr.newLane()}, tf
}
