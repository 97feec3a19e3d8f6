package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/runstore"
)

// TestTrainFailureDropsCheckpoint pins the orphan-checkpoint fix: a
// train job that fails terminally must remove its resume snapshots.
// The job body is driven directly: its spec carries a negative Θ, which
// admission refuses, so session construction fails before a single step.
func TestTrainFailureDropsCheckpoint(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(st, "", 2, context.Background())

	// Plant stale resume state under the exact key the job runs under.
	spec := dist.JobSpec{Model: "lenet5s", Strategy: "SketchFDA", Theta: -1, K: 3, Steps: 40}.WithDefaults()
	resume := trainSpec(spec.Key()).Prefix("resume")
	if err := st.PutSnapshot(resume, 7, 0, []byte("stale")); err != nil {
		t.Fatal(err)
	}

	j, ctx, _, err := s.createJob(spec.Key(), func(j *job) { j.Kind = "train" })
	if err != nil {
		t.Fatal(err)
	}
	s.wg.Add(1)
	go s.runJob(ctx, j, func(ctx context.Context) (any, error) { return s.trainLocal(ctx, j, spec) })
	<-j.done
	if v := j.view(); v.Status != statusFailed {
		t.Fatalf("job status %q (%s), want failed", v.Status, v.Error)
	}
	if n := resumeSnapshots(t, st, spec.Key()); n != 0 {
		t.Fatalf("failed train job left %d resume snapshot(s)", n)
	}
}

// TestJournalRecovery pins the journal read-back: after a restart, jobs
// journaled mid-run resurface as "interrupted" in /v1/runs, their keys
// give way to resubmissions, the ID counter continues past every
// journaled ID, and the journal file is compacted to one line per job.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First server life: one sweep runs to completion, a second is
	// journaled as running and never transitions (simulating a crash).
	first := newServer(st, "", 2, context.Background())
	ts := httptest.NewServer(first.routes())
	var done jobView
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":1}`, http.StatusAccepted, &done)
	waitStatus(t, ts, done.ID, statusDone)
	ts.Close()
	crashed := jobView{ID: "r7", Kind: "sweep", Experiment: "smoke", Scale: "tiny", Seed: 9,
		Status: statusRunning, Cells: 2, Executed: 1}
	first.journal.record(crashed, "sweep|smoke|tiny|9")
	// A torn tail line (crash mid-append) must not poison recovery.
	if err := appendLine(filepath.Join(dir, journalFile("")), []byte(`{"time":"2026-08-08T0`)); err != nil {
		t.Fatal(err)
	}

	// Second life over the same store directory.
	second := newServer(st, "", 2, context.Background())
	second.recoverJournal()
	ts2 := httptest.NewServer(second.routes())
	t.Cleanup(ts2.Close)

	var views []jobView
	getJSON(t, ts2.URL+"/v1/runs", http.StatusOK, &views)
	if len(views) != 1 {
		t.Fatalf("recovered %d jobs, want 1 (the interrupted one): %+v", len(views), views)
	}
	v := views[0]
	if v.ID != "r7" || v.Status != statusInterrupted || v.Error == "" {
		t.Fatalf("recovered job = %+v", v)
	}
	if v.Cells != 2 || v.Executed != 1 {
		t.Fatalf("recovered job lost its progress counters: %+v", v)
	}
	var m metricsView
	getJSON(t, ts2.URL+"/v1/metrics", http.StatusOK, &m)
	if m.Jobs.Interrupted != 1 {
		t.Fatalf("metrics interrupted = %d, want 1", m.Jobs.Interrupted)
	}
	// Records of an interrupted job are a conflict, not a null payload.
	getJSON(t, ts2.URL+"/v1/runs/r7/records", http.StatusConflict, nil)

	// The journal is compacted to one line per job, torn tail dropped.
	b, err := os.ReadFile(filepath.Join(dir, journalFile("")))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimSpace(string(b)), "\n") + 1; n != 2 {
		t.Fatalf("compacted journal holds %d lines, want 2:\n%s", n, b)
	}

	// Resubmitting the interrupted spec starts a fresh job with a fresh
	// ID past every journaled one — the interrupted shell gave way.
	var re jobView
	postJSON(t, ts2.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":9}`, http.StatusAccepted, &re)
	if re.ID != "r8" {
		t.Fatalf("resubmission got ID %s, want r8 (counter continues past journal)", re.ID)
	}
	waitStatus(t, ts2, re.ID, statusDone)
}

// TestJournalPerReplicaOnSharedStore runs two replicas over one store,
// as a gateway cluster does: each admits a job (both numbered r1) and
// dies mid-run. A restarted replica recovers its own interrupted job
// and never the other's, and continues its own id counter.
func TestJournalPerReplicaOnSharedStore(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	admit := func(s *server, key, experiment string) string {
		t.Helper()
		j, _, _, err := s.createJob(key, func(j *job) { j.Kind, j.Experiment = "sweep", experiment })
		if err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	ctx := context.Background()
	a, b := newServer(st, "a", 1, ctx), newServer(st, "b", 1, ctx)
	if ida, idb := admit(a, "key-a", "fig3"), admit(b, "key-b", "fig8"); ida != "r1" || idb != "r1" {
		t.Fatalf("first admissions got ids %s and %s, want r1 on each replica", ida, idb)
	}

	for _, want := range []struct{ name, key, experiment string }{{"a", "key-a", "fig3"}, {"b", "key-b", "fig8"}} {
		restarted := newServer(st, want.name, 1, ctx)
		restarted.recoverJournal()
		j := restarted.byID["r1"]
		if len(restarted.byID) != 1 || j == nil {
			t.Fatalf("replica %s recovered %d jobs, want its own r1", want.name, len(restarted.byID))
		}
		if v := j.view(); j.key != want.key || v.Experiment != want.experiment || v.Status != statusInterrupted {
			t.Fatalf("replica %s recovered %+v under key %q, want its own %s job %q, interrupted",
				want.name, v, j.key, want.experiment, want.key)
		}
		if id := admit(restarted, "key-next-"+want.name, "fig3"); id != "r2" {
			t.Fatalf("replica %s's next admission got %s, want r2", want.name, id)
		}
	}
}
