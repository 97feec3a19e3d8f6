package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/runstore"
)

// This file implements single-run training sessions as first-class
// server jobs: POST /v1/train starts a core.Session, its typed events
// stream over the job's SSE endpoint, DELETE cancels it between steps
// and stores a full-state resume snapshot in the run registry, and
// resubmitting the same spec restores that snapshot and continues
// bit-identically to a run that was never interrupted (the session
// resume contract, pinned by TestTrainCancelResumeExact). A finished
// local train is a one-cell run in the same registry, so a
// resubmission — to this process or to one restarted over the same
// store — is answered without a training step.

// The POST /v1/train body is a dist.JobSpec read by dist.ParseJobSpec:
// its fields, defaults, canonical dedupe key and Config construction all
// live there, so the fdagate affinity router, this server's dedupe and
// the distributed workers read one definition. Admission does not
// synthesize the datasets: that costs hundreds of milliseconds and would
// make admission latency scale with dataset size instead of queue depth
// (and distributed jobs never use the result: the workers synthesize
// their own shards). The job goroutine materializes them;
// core.NewSession re-validates the completed config before any training
// step runs.

func (s *server) handleTrain(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeBody(w, r, dist.ParseJobSpec)
	if !ok {
		return
	}
	if spec.Distributed && s.fabricAddr == "" {
		cluster.WriteError(w, http.StatusBadRequest, "distributed training requires the server to be started with -fabric")
		return
	}

	train := s.trainLocal
	if spec.Distributed {
		train = s.trainDistributed
	}
	j, existing, err := s.table.Submit(spec.Key(), func(j *jobs.Job) {
		j.Kind, j.Experiment, j.Seed = "train", spec.Model+"/"+spec.Strategy, spec.Seed
	}, func(ctx context.Context, j *jobs.Job) (any, error) { return train(ctx, j, spec) })
	s.writeSubmitted(w, j, existing, err)
}

// workerJoinTimeout is how long a distributed job waits for its K
// workers to dial and say hello before it fails and frees its slot and
// the fabric address.
const workerJoinTimeout = 2 * time.Minute

// trainDistributed coordinates one multi-process training run: the job
// listens on the server's fabric address, waits up to workerJoinTimeout
// for the K worker processes, which exchange their collectives directly,
// and returns the verified cluster Result. Cancellation (DELETE or
// shutdown) closes the coordinator, and every worker's fabric, watching
// its coordinator connection, fails its collectives with transport errors.
func (s *server) trainDistributed(ctx context.Context, j *jobs.Job, spec dist.JobSpec) (core.Result, error) {
	coord, err := comm.ListenCoordinator(s.fabricAddr, spec.K)
	if err != nil {
		return core.Result{}, err
	}
	defer coord.Close()
	coord.JoinDeadline = time.Now().Add(workerJoinTimeout)
	j.SetFabricAddr(coord.Addr())
	j.Publish("fabric", map[string]any{"addr": coord.Addr(), "workers": spec.K})

	res, err := dist.Coordinate(ctx, coord, spec)
	if err == nil {
		j.Steps.Store(int64(res.Steps))
		j.Syncs.Store(int64(res.SyncCount))
	}
	return res, err
}

// trainSpec is a local train's address in the run registry: the job
// key already covers every input of the Result, and the Spec adds
// SpecVersion, so state written under other numerics is never found.
// The entry holds the JSON-encoded Result; a cancelled run's resume
// state lives at trainSpec(key).Prefix("resume").
func trainSpec(key string) runstore.Spec {
	return runstore.Spec{Experiment: "train", Extra: map[string]string{"key": key}}
}

// trainLocal drives one core.Session under the job's context. A stored
// Result answers the spec without building a session; otherwise the
// run restores a prior cancelled submission's resume snapshot when one
// exists, stores its Result on success and a resume snapshot on
// cancellation. Dataset synthesis happens here, off the admission path
// — the handler already vetted everything that can 400.
func (s *server) trainLocal(ctx context.Context, j *jobs.Job, spec dist.JobSpec) (res core.Result, err error) {
	run := trainSpec(j.Key)
	if recs, ok, _ := s.store.Get(run); ok && len(recs) == 1 {
		var hit core.Result
		if json.Unmarshal(recs[0], &hit) == nil {
			j.Steps.Store(int64(hit.Steps))
			j.Syncs.Store(int64(hit.SyncCount))
			return hit, nil
		}
	}
	// Resume snapshots are only ever resumable state: a finished run has
	// nothing left to resume, and a failed one (an error or a panic —
	// re-running the same deterministic spec re-fails) would leave the
	// snapshot of an earlier cancellation behind as an orphan. Only a
	// cancelled run keeps (and refreshes) them.
	resume := run.Prefix("resume")
	defer func() {
		if !jobs.IsCancellation(err) {
			s.store.DeleteSnapshots(resume)
		}
	}()

	cfg, err := spec.BuildConfig()
	if err != nil {
		return res, err
	}
	cfg.Parallelism = s.jobs
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		return res, err
	}
	sess, err := core.NewSession(ctx, cfg, strat)
	if err != nil {
		return res, err
	}
	if blob, _, ok, _ := s.store.BestSnapshot(resume, math.MaxInt, nil); ok {
		snap, rerr := checkpoint.Unmarshal(blob)
		if rerr == nil {
			rerr = sess.Restore(snap)
		}
		if rerr != nil {
			// A stale or mismatched snapshot must not poison the run:
			// drop it and train from scratch.
			fmt.Fprintf(os.Stderr, "fdaserve: dropping bad resume snapshot: %v\n", rerr)
			s.store.DeleteSnapshots(resume)
		} else {
			j.Resumed.Store(true)
			j.Steps.Store(int64(sess.StepCount()))
		}
	}

	sess.Subscribe(func(e core.Event) {
		switch ev := e.(type) {
		case core.StepEvent:
			j.Steps.Store(int64(ev.Step))
			j.Publish("step", ev)
		case core.SyncEvent:
			j.Syncs.Store(int64(ev.SyncCount))
			j.Publish("sync", ev)
		case core.EvalEvent:
			j.Publish("eval", ev)
		case core.DoneEvent:
			j.Publish("done", ev)
		}
	})

	res, err = sess.Run()
	// A failed put costs a later resubmission work, never this job.
	var perr error
	switch {
	case err == nil:
		var b []byte
		if b, perr = json.Marshal(res); perr == nil {
			perr = s.store.Put(run, []json.RawMessage{b})
		}
	case jobs.IsCancellation(err) && sess.StepCount() > 0:
		var snap *checkpoint.Snapshot
		var blob []byte
		if snap, perr = sess.Snapshot(); perr == nil {
			if blob, perr = checkpoint.Marshal(snap); perr == nil {
				perr = s.store.PutSnapshot(resume, sess.StepCount(), 0, blob)
			}
		}
	}
	if perr != nil {
		fmt.Fprintf(os.Stderr, "fdaserve: storing train state: %v\n", perr)
	}
	return res, err
}
