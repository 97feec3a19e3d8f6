package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/core"
)

// RunWorker joins the coordinator at addr as one worker process: it
// dials the fabric, receives its rank and the job spec, and runs the job
// on it (RunFabric). The returned Result is this rank's local view —
// bit-identical to every other rank's by the fabric determinism
// contract.
//
// parallelism bounds the in-process worker/eval goroutines exactly like
// the -jobs flag (results are unaffected).
func RunWorker(ctx context.Context, addr string, parallelism int) (res core.Result, rank int, err error) {
	fabric, payload, err := comm.DialFabric(ctx, addr, comm.DefaultCostModel())
	if err != nil {
		return core.Result{}, -1, err
	}
	defer fabric.Close()
	res, err = RunFabric(ctx, fabric, payload, parallelism)
	return res, fabric.Rank(), err
}

// RunFabric runs the job whose spec the coordinator sent as payload on a
// dialled fabric: it builds the replicated session for the fabric's rank,
// trains to completion, and reports its Result to the coordinator. The
// caller keeps the fabric, and closes it.
func RunFabric(ctx context.Context, fabric *comm.TCPFabric, payload []byte, parallelism int) (core.Result, error) {
	spec, err := ParseJobSpec(payload)
	if err != nil {
		return core.Result{}, fmt.Errorf("dist: job spec: %w", err)
	}
	cfg, err := spec.BuildConfig()
	if err != nil {
		return core.Result{}, err
	}
	cfg.Fabric = fabric
	cfg.Parallelism = parallelism
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		return core.Result{}, err
	}

	res, err := runSession(ctx, cfg, strat)
	if err != nil {
		return res, err
	}
	body, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	if err := fabric.SendResult(body); err != nil {
		return res, fmt.Errorf("dist: reporting result: %w", err)
	}
	return res, nil
}

// runSession drives one session, converting fabric transport panics
// (connection drops, protocol desync) into ordinary errors.
func runSession(ctx context.Context, cfg core.Config, strat core.Strategy) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			var fe *comm.FabricError
			if e, ok := r.(error); ok && errors.As(e, &fe) {
				err = fe
				return
			}
			panic(r)
		}
	}()
	sess, err := core.NewSession(ctx, cfg, strat)
	if err != nil {
		return core.Result{}, err
	}
	return sess.Run()
}

// Coordinate drives one distributed training run end to end: it serves
// the rendezvous on coord, hands spec to every worker, waits
// for all K results, verifies the ranks agree bit-for-bit, and returns
// the cluster Result. The coordinator owns no training state — it is
// transport plus verification.
func Coordinate(ctx context.Context, coord *comm.Coordinator, spec JobSpec) (core.Result, error) {
	job, err := json.Marshal(spec)
	if err != nil {
		return core.Result{}, err
	}
	payloads, err := coord.Serve(ctx, job)
	if err != nil {
		return core.Result{}, err
	}
	results := make([]core.Result, len(payloads))
	for r, p := range payloads {
		if err := json.Unmarshal(p, &results[r]); err != nil {
			return core.Result{}, fmt.Errorf("dist: decoding rank %d result: %w", r, err)
		}
	}
	for r := 1; r < len(results); r++ {
		if err := sameResult(results[0], results[r]); err != nil {
			return results[0], fmt.Errorf("dist: rank %d diverged from rank 0: %w — the fabric determinism contract is broken", r, err)
		}
	}
	return results[0], nil
}

// sameResult checks the fields the determinism contract pins: training
// trajectory (steps, syncs, accuracy bits) and cost accounting.
func sameResult(a, b core.Result) error {
	switch {
	case a.Steps != b.Steps:
		return fmt.Errorf("steps %d vs %d", a.Steps, b.Steps)
	case a.SyncCount != b.SyncCount:
		return fmt.Errorf("syncs %d vs %d", a.SyncCount, b.SyncCount)
	case a.CommBytes != b.CommBytes:
		return fmt.Errorf("comm bytes %d vs %d", a.CommBytes, b.CommBytes)
	case a.StateBytes != b.StateBytes || a.ModelBytes != b.ModelBytes:
		return fmt.Errorf("byte split (%d,%d) vs (%d,%d)", a.StateBytes, a.ModelBytes, b.StateBytes, b.ModelBytes)
	case math.Float64bits(a.FinalTestAcc) != math.Float64bits(b.FinalTestAcc):
		return fmt.Errorf("final accuracy %v vs %v", a.FinalTestAcc, b.FinalTestAcc)
	case a.ReachedTarget != b.ReachedTarget:
		return fmt.Errorf("reached %v vs %v", a.ReachedTarget, b.ReachedTarget)
	case len(a.History) != len(b.History):
		return fmt.Errorf("history length %d vs %d", len(a.History), len(b.History))
	}
	return nil
}
