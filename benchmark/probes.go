package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/runstore"
	"repro/internal/tensor"
)

// probeHidden is the right-hand width of the matmul probe: the first
// hidden layer of convnexts and the dense head of densenet121s.
const probeHidden = 160

// sink keeps probe results observable so the compiler cannot drop the
// measured calls.
var sink float64

// timeMedianMs runs fn reps times and returns the median duration, or
// the first error fn reports.
func timeMedianMs(reps int, fn func() error) (float64, error) {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t0)) / 1e6
	}
	return median(d), nil
}

// fillTrainingLayers turns the spans of a traced training phase into
// the core, opt and comm layer metrics.
func fillTrainingLayers(out *outcome, tr *tracer, b *builtSession, steps int) {
	agg := aggregate(tr.all())
	step, strat := agg["step"], agg["strategy"]
	out.setLayer("core.step_ms", step.meanMs())
	out.setLayer("core.strategy_ms", strat.meanMs())
	if step.TotalNs > 0 {
		out.setLayer("core.local_share", 1-float64(strat.TotalNs)/float64(step.TotalNs))
	}
	out.setLayer("core.syncs", float64(agg["comm.model"].Count))
	out.setLayer("opt.step_ms", agg["opt.step"].meanMs())
	out.setLayer("comm.model_ms", agg["comm.model"].meanMs())
	out.setLayer("comm.state_ms", agg["comm.state"].meanMs())
	var commNs int64
	for name, st := range agg {
		if strings.HasPrefix(name, "comm.") {
			commNs += st.TotalNs
		}
	}
	if step.TotalNs > 0 {
		out.setLayer("comm.busy_share", float64(commNs)/float64(step.TotalNs))
	}
	tf := b.traced
	if steps > 0 {
		out.setLayer("comm.calls_per_step", float64(tf.calls)/float64(steps))
	}
	out.setLayer("comm.charged_bytes", float64(tf.chargedBytes))
	out.setLayer("comm.wire_bytes", float64(tf.wireBytes))
	if tf.perWorker > 0 {
		out.setLayer("comm.wire_overhead", float64(tf.wireBytes)/float64(tf.perWorker))
	}
}

// probeLayers times, directly and from outside, the layers no seam
// exposes — the network's loss/gradient and evaluation passes, dataset
// synthesis and sampling, the tensor kernels, session snapshot/restore,
// checkpoint encoding and the run registry — on the shapes of the
// workload described by spec. Metrics a traced phase already set from
// spans (opt.step_ms) are left alone.
func probeLayers(ctx context.Context, rc runConfig, out *outcome, spec dist.JobSpec) error {
	ms, err := models.ByName(spec.Model)
	if err != nil {
		return err
	}
	// probe times fn (reps repetitions, one in the smoke test) and books
	// the median under name.
	probe := func(name string, reps int, fn func() error) error {
		v, err := timeMedianMs(rc.scaled(reps), fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out.setLayer(name, v)
		return nil
	}
	// pure wraps a call that cannot fail.
	pure := func(fn func()) func() error { return func() error { fn(); return nil } }

	// data: materialising the spec is dataset synthesis plus
	// normalisation (models.DatasetFor) and nothing else of note.
	short := spec
	short.Steps = 8
	t0 := time.Now()
	cfg, err := short.BuildConfig()
	if err != nil {
		return err
	}
	out.setLayer("data.synth_ms", float64(time.Since(t0))/1e6)
	train, test := cfg.Train, cfg.Test
	sampler := data.NewSampler(train, tensor.NewRNG(spec.Seed))
	var batch data.Batch
	const sampleReps = 2000
	t0 = time.Now()
	for i := 0; i < sampleReps; i++ {
		sampler.SampleInto(&batch, spec.Batch)
	}
	out.setLayer("data.sample_us", float64(time.Since(t0))/1e3/sampleReps)

	// nn, opt, tensor. The tensor rates are computed from the shapes, not
	// read from hardware counters.
	net := ms.Build(tensor.NewRNG(spec.Seed))
	d := net.NumParams()
	m, k, n := spec.Batch, net.InDim(), probeHidden
	a, bm, dst := tensor.NewMat(m, k), tensor.NewMat(k, n), tensor.NewMat(m, n)
	x, y := make([]float64, d), make([]float64, d)
	rng := tensor.NewRNG(spec.Seed)
	tensor.Normal(rng, a.Data, 0, 1)
	tensor.Normal(rng, bm.Data, 0, 1)
	tensor.Normal(rng, x, 0, 1)
	o := ms.Optimizer()
	kernels := []struct {
		name string
		reps int
		fn   func()
	}{
		{"nn.lossgrad_ms", 40, func() { sink += net.LossGradBatch(batch) }},
		{"nn.eval_ms", 5, func() { sink += float64(net.CountCorrect(test, 0, test.Len())) }},
		{"opt.step_ms", 40, func() { o.Step(net.Params(), net.Grads()) }},
		{"tensor.matmul_gflops", 40, func() { tensor.MatMul(dst, a, bm) }},
		{"tensor.axpy_gbps", 200, func() { tensor.AXPY(0.5, x, y) }},
		{"tensor.dot_gbps", 200, func() { sink += tensor.Dot(x, y) }},
	}
	for _, kn := range kernels {
		if _, set := out.layer[kn.name]; set {
			continue // opt.step_ms: a traced training phase measured it in place
		}
		if err := probe(kn.name, kn.reps, pure(kn.fn)); err != nil {
			return err
		}
	}
	// Turn the three kernel times (ms) into rates: FLOPs or bytes ÷ time.
	out.setLayer("tensor.matmul_gflops", 2*float64(m)*float64(k)*float64(n)/(out.layer["tensor.matmul_gflops"]*1e6))
	out.setLayer("tensor.axpy_gbps", 3*8*float64(d)/(out.layer["tensor.axpy_gbps"]*1e6))
	out.setLayer("tensor.dot_gbps", 2*8*float64(d)/(out.layer["tensor.dot_gbps"]*1e6))

	// core snapshot/restore and checkpoint encoding, on a session of the
	// workload's own configuration a few steps in.
	newSession := func() (*core.Session, error) {
		strat, err := short.BuildStrategy(cfg)
		if err != nil {
			return nil, err
		}
		return core.NewSession(ctx, cfg, strat)
	}
	src, err := newSession()
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if _, err := src.Step(); err != nil {
			return err
		}
	}
	var (
		snap *checkpoint.Snapshot
		blob []byte
	)
	if err := probe("core.snapshot_ms", 5, func() (err error) { snap, err = src.Snapshot(); return }); err != nil {
		return err
	}
	if err := probe("checkpoint.marshal_ms", 5, func() (err error) { blob, err = checkpoint.Marshal(snap); return }); err != nil {
		return err
	}
	out.setLayer("checkpoint.bytes", float64(len(blob)))
	if err := probe("checkpoint.unmarshal_ms", 5, func() (err error) { snap, err = checkpoint.Unmarshal(blob); return }); err != nil {
		return err
	}
	// Restore needs a fresh session each time; only the call is timed.
	restoreMs := make([]float64, 0, 3)
	for i := 0; i < rc.scaled(3); i++ {
		fresh, err := newSession()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := fresh.Restore(snap); err != nil {
			return err
		}
		restoreMs = append(restoreMs, float64(time.Since(t0))/1e6)
	}
	out.setLayer("core.restore_ms", median(restoreMs))

	// runstore, in a private registry: records of the size this
	// workload's results have, and the snapshot blob from above.
	dir, err := scratchDir(rc.root, "probe-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	line, err := json.Marshal(src.Result())
	if err != nil {
		return err
	}
	cell := runstore.Spec{
		Experiment: "benchmark-probe", Scale: "tiny", Seed: spec.Seed,
		Model: spec.Model, Strategy: spec.Strategy, Theta: spec.Theta, K: spec.K, Het: spec.Het,
	}
	prefix := cell.Prefix("benchmark-probe")
	steps := 0
	storeOps := []struct {
		name string
		reps int
		fn   func() error
	}{
		{"runstore.put_ms", 20, func() error {
			cell.CellSeed++
			return store.Put(cell, []json.RawMessage{line})
		}},
		{"runstore.get_ms", 20, func() error {
			_, ok, err := store.Get(cell)
			if err == nil && !ok {
				err = errors.New("record just put is missing")
			}
			return err
		}},
		{"runstore.put_snapshot_ms", 5, func() error {
			steps += 10
			return store.PutSnapshot(prefix, steps, 0, blob)
		}},
		{"runstore.best_snapshot_ms", 5, func() error {
			_, _, ok, err := store.BestSnapshot(prefix, steps+1, nil)
			if err == nil && !ok {
				err = errors.New("snapshot just put is missing")
			}
			return err
		}},
	}
	for _, op := range storeOps {
		if err := probe(op.name, op.reps, op.fn); err != nil {
			return err
		}
	}
	if _, ok := out.layer["runstore.disk_bytes"]; !ok {
		out.setLayer("runstore.disk_bytes", float64(dirBytes(dir)))
	}
	return nil
}
