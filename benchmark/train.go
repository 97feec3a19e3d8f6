package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
)

const (
	// trainWarmSteps is the fixed warm-up every set-up runs (about 1.3 s
	// on the reference box), so set-up is long enough that millisecond
	// jitter is under 1 % of it.
	trainWarmSteps = 150
	// trainSegSteps is one segment: 50 steps, one of them an evaluation
	// step (EvalEvery = 50), so every segment is the same work.
	trainSegSteps = 50
	// trainParityAt is the prefix length of the Parallelism=1 parity run.
	trainParityAt = 30
	// trainAccFloor is what a run of ≥ 300 steps must reach on the
	// 10-class task; chance is 0.10, and every seed tried reaches 0.98
	// within 1000 steps.
	trainAccFloor = 0.80
)

func trainComputeSpec(seed uint64, steps int) dist.JobSpec {
	return dist.JobSpec{
		Model: "vgg16s", Strategy: "LinearFDA",
		K: 4, Batch: 32, Steps: steps, EvalEvery: trainSegSteps,
		Het: "iid", Seed: deriveSeed(seed, "train_compute"),
	}.WithDefaults()
}

// builtSession is a session plus the handles the benchmark reads.
type builtSession struct {
	sess   *core.Session
	fabric comm.Fabric
	traced *tracedFabric // nil when untraced
}

// buildSession materialises spec (dataset synthesis included) into a
// session on fabric; a nil fabric selects the in-process cluster the
// session would build itself. With a tracer the seams are decorated.
func buildSession(ctx context.Context, spec dist.JobSpec, fabric comm.Fabric, parallelism int, tr *tracer) (*builtSession, error) {
	cfg, err := spec.BuildConfig()
	if err != nil {
		return nil, err
	}
	if fabric == nil {
		fabric = comm.NewClusterWithCost(cfg.K, comm.DefaultCostModel())
	}
	cfg.Fabric = fabric
	cfg.Parallelism = parallelism
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		return nil, err
	}
	b := &builtSession{fabric: fabric}
	if tr != nil {
		strat, b.traced = traceConfig(tr, &cfg, strat)
	}
	b.sess, err = core.NewSession(ctx, cfg, strat)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// stepper advances a session one step at a time, timing each step and,
// in the traced pass, recording it as the root span of its op.
type stepper struct {
	sess *core.Session
	tr   *tracer
	lane *lane
}

func newStepper(sess *core.Session, tr *tracer) *stepper {
	s := &stepper{sess: sess, tr: tr}
	if tr != nil {
		s.lane = tr.newLane()
	}
	return s
}

// step runs one Session.Step and returns its latency in milliseconds.
func (s *stepper) step() (ms float64, err error) {
	if s.tr != nil {
		i, id := s.lane.beginUnder("step", 0, s.tr.op.Add(1))
		s.tr.cur.Store(id)
		defer func() {
			s.tr.cur.Store(0)
			s.lane.end(i)
		}()
	}
	t0 := time.Now()
	_, err = s.sess.Step()
	return float64(time.Since(t0)) / 1e6, err
}

// steps runs n steps and returns their latencies.
func (s *stepper) steps(n int) ([]float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ms, err := s.step()
		if err != nil {
			return lat, err
		}
		lat = append(lat, ms)
	}
	return lat, nil
}

func runTrainCompute(ctx context.Context, rc runConfig) (*outcome, error) {
	out := &outcome{}
	warm := rc.scaled(trainWarmSteps)
	segSteps := rc.scaled(trainSegSteps)
	parityAt := rc.scaled(trainParityAt)
	spec := trainComputeSpec(rc.seed, warm+rc.segs*segSteps)
	spec.EvalEvery = segSteps

	// Set-up, repeated: dataset synthesis, replica and session build,
	// fixed warm-up. Only the last one is decorated and kept.
	var (
		b       *builtSession
		st      *stepper
		parityW []float64 // global model after parityAt parallel steps
	)
	for i := 0; i < rc.setups; i++ {
		b, st = nil, nil
		settle()
		t0 := time.Now()
		tr := rc.tr
		if i < rc.setups-1 {
			tr = nil
		}
		var err error
		if b, err = buildSession(ctx, spec, nil, core.AutoParallelism, tr); err != nil {
			return nil, err
		}
		st = newStepper(b.sess, nil) // warm-up steps are never traced
		if _, err := st.steps(parityAt); err != nil {
			return nil, err
		}
		if i == 0 {
			parityW = make([]float64, b.sess.NumParams())
			b.sess.GlobalModel(parityW)
		}
		if _, err := st.steps(warm - parityAt); err != nil {
			return nil, err
		}
		out.setupSec = append(out.setupSec, rc.bootSec+sinceSec(t0))
	}
	st = newStepper(b.sess, rc.tr)

	// Timed phase: a fixed number of steps, in equal segments.
	bytes0 := b.fabric.Meter().TotalBytes()
	perSeg := int64(segSteps * spec.Batch * spec.K)
	for s := 0; s < rc.segs; s++ {
		rc.arm(s)
		t0 := time.Now()
		lat, err := st.steps(segSteps)
		if err != nil {
			return nil, err
		}
		out.segs = append(out.segs, segment{wallSec: sinceSec(t0), samples: perSeg, opMs: lat})
		out.attempted += len(lat)
		out.samples += perSeg
	}
	rc.disarm()
	out.commBytes = b.fabric.Meter().TotalBytes() - bytes0

	// Correctness: the run finished on budget, learned something, and a
	// sequential prefix is bit-equal to the parallel one.
	res := b.sess.Result()
	if !b.sess.Done() || res.Steps != spec.Steps {
		out.faultf("train_compute: session ended at step %d (done=%v), want %d", res.Steps, b.sess.Done(), spec.Steps)
	}
	if spec.Steps >= 300 && res.FinalTestAcc < trainAccFloor {
		out.faultf("train_compute: final accuracy %.4f below floor %.2f after %d steps", res.FinalTestAcc, trainAccFloor, res.Steps)
	}
	settle()
	seq, err := buildSession(ctx, spec, nil, 1, nil)
	if err != nil {
		return nil, err
	}
	if _, err := newStepper(seq.sess, nil).steps(parityAt); err != nil {
		return nil, err
	}
	seqW := make([]float64, seq.sess.NumParams())
	seq.sess.GlobalModel(seqW)
	if !bitsEqual(seqW, parityW) {
		out.faultf("train_compute: Parallelism=1 prefix of %d steps differs from the parallel run", parityAt)
	}

	if rc.tr != nil {
		fillTrainingLayers(out, rc.tr, b, rc.recordedSegs()*segSteps)
		if err := probeLayers(ctx, rc, out, spec); err != nil {
			return nil, fmt.Errorf("train_compute probes: %w", err)
		}
	}
	return out, nil
}
