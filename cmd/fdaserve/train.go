package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
)

// This file implements single-run training sessions as first-class
// server jobs: POST /v1/train starts a core.Session, its typed events
// stream over the job's SSE endpoint, DELETE cancels it between steps
// and writes a full-state checkpoint into the store directory, and
// resubmitting the same spec restores that checkpoint and continues
// bit-identically to a run that was never interrupted (the session
// resume contract, pinned by TestTrainCancelResumeExact).

// The POST /v1/train body is a dist.JobSpec: its fields, defaults,
// canonical dedupe key and Config construction all live there, so the
// fdagate affinity router, this server's dedupe and the distributed
// workers read one definition.

// checkpointPath addresses the resume checkpoint of a train spec inside
// the store directory.
func (s *server) checkpointPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.store.Dir(), "sessions", hex.EncodeToString(sum[:8])+".ckpt")
}

func (s *server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var spec dist.JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if spec.Model == "" || spec.Strategy == "" {
		cluster.WriteError(w, http.StatusBadRequest, "model and strategy are required")
		return
	}
	spec = spec.WithDefaults()
	// Reject bad specs at the door — with the structured field errors
	// where there are any — instead of surfacing them later as a failed
	// job. The datasets are NOT synthesized here: that costs hundreds of
	// milliseconds and made admission latency scale with dataset size
	// instead of queue depth (and distributed jobs never use the result:
	// the workers synthesize their own shards). The job goroutine
	// materializes them; core.NewSession re-validates the completed
	// config before any training step runs.
	if err := spec.Validate(); err != nil {
		var cerr *core.ConfigError
		if errors.As(err, &cerr) {
			fields := make([]map[string]string, 0, len(cerr.Fields))
			for _, f := range cerr.Fields {
				fields = append(fields, map[string]string{"field": f.Field, "msg": f.Msg})
			}
			cluster.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error(), "fields": fields})
			return
		}
		cluster.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if spec.Distributed && s.fabricAddr == "" {
		cluster.WriteError(w, http.StatusBadRequest, "distributed training requires the server to be started with -fabric")
		return
	}

	j, ctx, existing, err := s.createJob(spec.Key(), func(j *job) {
		j.Kind = "train"
		j.Experiment = spec.Model + "/" + spec.Strategy
		j.Seed = spec.Seed
	})
	if err != nil {
		s.writeUnavailable(w, err)
		return
	}
	if existing {
		cluster.WriteJSON(w, http.StatusOK, j.view())
		return
	}
	train := s.trainLocal
	if spec.Distributed {
		train = s.trainDistributed
	}
	s.wg.Add(1)
	go s.runJob(ctx, j, func(ctx context.Context) (any, error) { return train(ctx, j, spec) })
	cluster.WriteJSON(w, http.StatusAccepted, j.view())
}

// workerJoinTimeout is how long a distributed job waits for its K
// workers to dial and say hello before it fails and frees its slot and
// the fabric address.
const workerJoinTimeout = 2 * time.Minute

// trainDistributed coordinates one multi-process training run: the job
// listens on the server's fabric address, waits up to workerJoinTimeout
// for the K worker processes, relays their collectives and returns the
// verified cluster Result. Cancellation (DELETE or shutdown) closes the
// coordinator, which unblocks the workers with transport errors.
func (s *server) trainDistributed(ctx context.Context, j *job, spec dist.JobSpec) (core.Result, error) {
	coord, err := comm.ListenCoordinator(s.fabricAddr, spec.K)
	if err != nil {
		return core.Result{}, err
	}
	defer coord.Close()
	coord.JoinDeadline = time.Now().Add(workerJoinTimeout)
	j.mu.Lock()
	j.fabricAddr = coord.Addr()
	j.mu.Unlock()
	j.events.publish("fabric", map[string]any{"addr": coord.Addr(), "workers": spec.K})

	res, err := dist.Coordinate(ctx, coord, spec)
	if err == nil {
		j.steps.Store(int64(res.Steps))
		j.syncs.Store(int64(res.SyncCount))
	}
	return res, err
}

// trainLocal drives one core.Session under the job's context, restoring
// a prior interrupted submission's checkpoint when one exists and
// writing one when this run is cancelled. Dataset synthesis happens
// here, off the admission path — the handler already vetted everything
// that can 400.
func (s *server) trainLocal(ctx context.Context, j *job, spec dist.JobSpec) (res core.Result, err error) {
	ckpt := s.checkpointPath(j.key)
	// The sessions directory only ever holds resumable state: a finished
	// run has nothing left to resume, and a failed one (an error or a
	// panic — re-running the same deterministic spec re-fails) would
	// leave the checkpoint of an earlier cancellation behind as an
	// orphan. Only a cancelled run keeps (and refreshes) it.
	defer func() {
		if !cancelled(err) {
			os.Remove(ckpt)
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
	if snap, err := checkpoint.Load(ckpt); err == nil {
		if err := sess.Restore(snap); err != nil {
			// A stale or mismatched checkpoint must not poison the run:
			// drop it and train from scratch.
			fmt.Fprintf(os.Stderr, "fdaserve: dropping bad checkpoint %s: %v\n", ckpt, err)
			os.Remove(ckpt)
		} else {
			j.resumed.Store(true)
			j.steps.Store(int64(sess.StepCount()))
		}
	}

	sess.Subscribe(func(e core.Event) {
		switch ev := e.(type) {
		case core.StepEvent:
			j.steps.Store(int64(ev.Step))
			j.events.publish("step", ev)
		case core.SyncEvent:
			j.syncs.Store(int64(ev.SyncCount))
			j.events.publish("sync", ev)
		case core.EvalEvent:
			j.events.publish("eval", ev)
		case core.DoneEvent:
			j.events.publish("done", ev)
		}
	})

	res, err = sess.Run()
	if cancelled(err) {
		if snap, serr := sess.Snapshot(); serr == nil {
			if werr := saveCheckpoint(ckpt, snap); werr != nil {
				fmt.Fprintf(os.Stderr, "fdaserve: saving resume checkpoint: %v\n", werr)
			}
		} else {
			fmt.Fprintf(os.Stderr, "fdaserve: snapshotting cancelled session: %v\n", serr)
		}
	}
	return res, err
}

// sweepSessionCheckpoints removes session resume checkpoints older than
// ttl from <store>/sessions. A checkpoint is only useful to a
// resubmission of the same spec; one that has sat unclaimed past the
// TTL is an orphan — its job was abandoned, or a crash skipped the
// cleanup paths. Returns how many files were removed.
func sweepSessionCheckpoints(storeDir string, ttl time.Duration) int {
	dir := filepath.Join(storeDir, "sessions")
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-ttl)
	n := 0
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".ckpt") {
			continue
		}
		info, err := de.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, de.Name())) == nil {
			n++
		}
	}
	return n
}

// saveCheckpoint writes snap to path, creating the sessions directory on
// first use.
func saveCheckpoint(path string, snap *checkpoint.Snapshot) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return checkpoint.Save(path, snap)
}

// appendLine appends one line to path (creating it as needed).
func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
