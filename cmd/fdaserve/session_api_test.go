package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/models"
	"repro/internal/runstore"
)

// httptestServer serves an already-built server instance (tests that
// need control over its base context).
func httptestServer(t *testing.T, s *server) string {
	t.Helper()
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return ts.URL
}

// trainBody is the canonical training spec the session-API tests share.
const trainBody = `{"model":"lenet5s","strategy":"LinearFDA","k":3,"batch":16,"steps":400,"eval_every":40,"seed":5}`

// trainWant recomputes, in-process, the Result the trainBody spec must
// produce — the server builds its config through the same deterministic
// path (models.ByName + DatasetFor), so any divergence is a server bug.
func trainWant(t *testing.T) core.Result {
	t.Helper()
	spec, err := models.ByName("lenet5s")
	if err != nil {
		t.Fatal(err)
	}
	train, test := models.DatasetFor(spec, 5)
	cfg := core.Config{
		K: 3, BatchSize: 16, Seed: 5,
		Model: spec.Build, Optimizer: spec.Optimizer,
		Train: train, Test: test,
		MaxSteps: 400, EvalEvery: 40,
	}
	res, err := core.Run(cfg, core.NewLinearFDA(spec.ThetaGrid[1]))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// bodyKey is the dedupe key (and so the run-registry address) the
// server derives from a POST /v1/train body.
func bodyKey(t *testing.T, body string) string {
	t.Helper()
	spec, err := dist.ParseJobSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return spec.Key()
}

// resumeSnapshots counts the resume snapshots stored for a train key.
func resumeSnapshots(t *testing.T, st *runstore.Store, key string) int {
	t.Helper()
	ms, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	hash := trainSpec(key).Prefix("resume").Hash()
	n := 0
	for _, m := range ms {
		if m.Hash == hash {
			n++
		}
	}
	return n
}

// awaitSteps polls a train job until it has taken at least n steps.
func awaitSteps(t *testing.T, base, id string, n int64) jobs.View {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		var v jobs.View
		getJSON(t, base+"/v1/runs/"+id, http.StatusOK, &v)
		if v.Steps >= n || v.Status != "running" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never reached %d steps: %+v", id, n, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deleteRun issues DELETE /v1/runs/{id} and decodes the final view.
func deleteRun(t *testing.T, base, id string, wantCode int) jobs.View {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/runs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("DELETE %s = %d, want %d", id, resp.StatusCode, wantCode)
	}
	var v jobs.View
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return v
}

// TestTrainValidationErrors: the submit endpoint rejects bad specs with
// structured field errors before any job is created.
func TestTrainValidationErrors(t *testing.T) {
	ts := testServer(t, t.TempDir())
	postJSON(t, ts.URL+"/v1/train", `{"strategy":"LinearFDA"}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/train", `{"model":"nope","strategy":"LinearFDA"}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/train", `{"model":"lenet5s","strategy":"Nope"}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/train", `{"model":"lenet5s","strategy":"LinearFDA","het":"bogus"}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/train", `{"model":"lenet5s","strategy":"SketchFDA","theta":-1}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/train", `{"model":"lenet5s","strategy":"LinearFDA","theta":-1}`, http.StatusBadRequest, nil)

	var errResp struct {
		Error  string `json:"error"`
		Fields []struct {
			Field string `json:"field"`
			Msg   string `json:"msg"`
		} `json:"fields"`
	}
	postJSON(t, ts.URL+"/v1/train", `{"model":"lenet5s","strategy":"LinearFDA","k":-2}`,
		http.StatusBadRequest, &errResp)
	if len(errResp.Fields) == 0 || errResp.Fields[0].Field != "K" {
		t.Fatalf("structured field errors missing: %+v", errResp)
	}
	// A negative τ is a field error for every strategy, including the
	// ones that never read it; LocalSGD's constructor would panic on it.
	// A split the partitioner would refuse (lenet5s has 10 classes, and a
	// label split needs 2 holders) or one with no parser is a Het error.
	for _, c := range []struct{ body, field string }{
		{`{"model":"lenet5s","strategy":"LocalSGD","tau":-1}`, "Tau"},
		{`{"model":"lenet5s","strategy":"LinearFDA","tau":-1}`, "Tau"},
		{`{"model":"lenet5s","strategy":"LinearFDA","het":"pct150"}`, "Het"},
		{`{"model":"lenet5s","strategy":"LinearFDA","het":"pctNaN"}`, "Het"},
		{`{"model":"lenet5s","strategy":"LinearFDA","het":"label99"}`, "Het"},
		{`{"model":"lenet5s","strategy":"LinearFDA","het":"label-1"}`, "Het"},
		{`{"model":"lenet5s","strategy":"LinearFDA","het":"label0","k":1}`, "Het"},
		{`{"model":"lenet5s","strategy":"LinearFDA","het":"dir0.5"}`, "Het"},
	} {
		errResp.Fields = nil
		postJSON(t, ts.URL+"/v1/train", c.body, http.StatusBadRequest, &errResp)
		if len(errResp.Fields) != 1 || errResp.Fields[0].Field != c.field {
			t.Fatalf("%s: want one field error for %s, got %+v", c.body, c.field, errResp)
		}
	}

	var views []jobs.View
	getJSON(t, ts.URL+"/v1/runs", http.StatusOK, &views)
	if len(views) != 0 {
		t.Fatalf("rejected submissions created %d jobs", len(views))
	}
}

// TestTrainSSEStreamsLiveEvents: the events endpoint streams a live
// run's typed events and ends with a terminal status after completion.
func TestTrainSSEStreamsLiveEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training session")
	}
	ts := testServer(t, t.TempDir())
	var created jobs.View
	postJSON(t, ts.URL+"/v1/train", trainBody, http.StatusAccepted, &created)
	if created.Kind != "train" || created.Status != "running" {
		t.Fatalf("train submit view: %+v", created)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}

	events := map[string]int{}
	var lastStatus string
	scanner := bufio.NewScanner(resp.Body)
	var event string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events[event]++
		case strings.HasPrefix(line, "data: ") && event == "status":
			var v jobs.View
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				t.Fatalf("status payload: %v", err)
			}
			lastStatus = v.Status
		}
	}
	// The stream closed because the run finished (broker close), not a
	// client timeout, so the terminal status must be "done".
	if lastStatus != "done" {
		t.Fatalf("terminal SSE status %q, events %v", lastStatus, events)
	}
	if events["step"] == 0 || events["eval"] == 0 || events["done"] != 1 {
		t.Fatalf("event counts %v: want live step and eval events and one done", events)
	}

	final := awaitDone(t, ts.URL, created.ID)
	if final.Status != "done" || final.Steps != 400 {
		t.Fatalf("final view: %+v", final)
	}
}

// TestTrainCancelResumeExact is the cancelled-then-resumed parity
// contract end to end over HTTP: DELETE a mid-flight training session
// (the store records the cancelled status and a resume snapshot),
// resubmit the identical spec, and the resumed job's final records must
// equal — bit for bit — an uninterrupted in-process run.
func TestTrainCancelResumeExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training session twice")
	}
	dir := t.TempDir()
	ts := testServer(t, dir)
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := bodyKey(t, trainBody)
	want := trainWant(t)

	var created jobs.View
	postJSON(t, ts.URL+"/v1/train", trainBody, http.StatusAccepted, &created)
	mid := awaitSteps(t, ts.URL, created.ID, 25)
	if mid.Status != "running" {
		t.Fatalf("run finished before it could be cancelled: %+v (raise steps)", mid)
	}

	cancelled := deleteRun(t, ts.URL, created.ID, http.StatusOK)
	if cancelled.Status != "cancelled" {
		t.Fatalf("DELETE left status %q", cancelled.Status)
	}
	// The store directory records both the cancelled status (journal)
	// and the resume snapshot that funds the resume.
	journal, err := os.ReadFile(filepath.Join(dir, jobs.JournalFile("")))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), `"status":"cancelled"`) {
		t.Fatalf("journal lacks cancelled status:\n%s", journal)
	}
	if n := resumeSnapshots(t, st, key); n != 1 {
		t.Fatalf("resume snapshots in the store: %d, want 1", n)
	}
	// Records of a cancelled run conflict rather than serve partials.
	getJSON(t, ts.URL+"/v1/runs/"+created.ID+"/records", http.StatusConflict, nil)

	// Resubmit: a fresh job restores the checkpoint and continues.
	var resumedView jobs.View
	postJSON(t, ts.URL+"/v1/train", trainBody, http.StatusAccepted, &resumedView)
	if resumedView.ID == created.ID {
		t.Fatal("cancelled job did not give way to a resubmission")
	}
	final := awaitDone(t, ts.URL, resumedView.ID)
	if final.Status != "done" {
		t.Fatalf("resumed run: %+v", final)
	}
	if !final.Resumed {
		t.Fatal("resubmission did not restore the checkpoint")
	}
	if n := resumeSnapshots(t, st, key); n != 0 {
		t.Fatalf("%d resume snapshot(s) not cleaned up after completion", n)
	}

	var recs struct {
		Records core.Result `json:"records"`
	}
	getJSON(t, ts.URL+"/v1/runs/"+resumedView.ID+"/records", http.StatusOK, &recs)
	if !reflect.DeepEqual(recs.Records, want) {
		t.Fatalf("cancelled-then-resumed run diverged from uninterrupted run:\nwant: %v\ngot:  %v", want, recs.Records)
	}
}

// TestSweepCancelAndStoreResume: DELETE stops a sweep between cells;
// the completed cells persist, and a resubmission executes only the
// remainder.
func TestSweepCancelAndStoreResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training sweep")
	}
	dir := t.TempDir()
	ts := testServer(t, dir)

	var created jobs.View
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":7}`, http.StatusAccepted, &created)

	// Cancel immediately: the two smoke cells take long enough that the
	// context fires before the grid drains. If the sweep nevertheless
	// raced to completion, DELETE conflicts — tolerated, but then this
	// run exercised nothing (the session tests cover cancellation
	// deterministically).
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		t.Log("sweep finished before the cancel landed; nothing to resume")
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	var v jobs.View
	getJSON(t, ts.URL+"/v1/runs/"+created.ID, http.StatusOK, &v)
	if v.Status != "cancelled" {
		t.Fatalf("DELETE left the sweep %q", v.Status)
	}

	// Resubmitting completes the grid; any cell that finished before the
	// cancellation is served from the registry, not recomputed.
	var again jobs.View
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":7}`, http.StatusAccepted, &again)
	if again.ID == created.ID {
		t.Fatal("cancelled sweep did not give way to a resubmission")
	}
	done := awaitDone(t, ts.URL, again.ID)
	if done.Status != "done" {
		t.Fatalf("resumed sweep: %+v", done)
	}
	if done.Cached+done.Executed != done.Cells {
		t.Fatalf("resumed sweep cell accounting: %+v", done)
	}
}

// TestShutdownCancelsAndCheckpoints: cancelling the server's base
// context (the graceful-shutdown path) winds down in-flight training
// sessions with a resume snapshot and a journalled cancelled status.
func TestShutdownCancelsAndCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training session")
	}
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	baseCtx, shutdown := context.WithCancel(context.Background())
	s := newServer(st, "", 2, baseCtx)
	ts := httptestServer(t, s)

	var created jobs.View
	postJSON(t, ts+"/v1/train", trainBody, http.StatusAccepted, &created)
	awaitSteps(t, ts, created.ID, 10)

	shutdown()
	s.table.Wait()

	var v jobs.View
	getJSON(t, ts+"/v1/runs/"+created.ID, http.StatusOK, &v)
	if v.Status != "cancelled" {
		t.Fatalf("shutdown left run %q", v.Status)
	}
	if n := resumeSnapshots(t, st, bodyKey(t, trainBody)); n != 1 {
		t.Fatalf("shutdown saved %d resume snapshots", n)
	}
}

// TestTrainResultSurvivesRestart: a finished local train is a run in
// the registry. A fresh server over the same store answers the
// resubmitted spec from it without a training step, with records
// byte-identical to the first server's, and resume state written under
// another SpecVersion is never restored.
func TestTrainResultSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training session")
	}
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dist.ParseJobSpec([]byte(trainBody))
	if err != nil {
		t.Fatal(err)
	}
	key := spec.Key()

	// Plant a genuine mid-run snapshot of this very spec under the
	// previous SpecVersion's resume address: restorable bytes, but
	// written by other numerics.
	cfg, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(context.Background(), cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	for range 25 {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := checkpoint.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	stale := trainSpec(key)
	stale.Version = runstore.SpecVersion - 1
	if err := st.PutSnapshot(stale.Prefix("resume"), sess.StepCount(), 0, blob); err != nil {
		t.Fatal(err)
	}

	records := func(base, id string) []byte {
		t.Helper()
		resp, err := http.Get(base + "/v1/runs/" + id + "/records")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET records of %s = %d", id, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first := httptestServer(t, newServer(st, "", 2, context.Background()))
	var created jobs.View
	postJSON(t, first+"/v1/train", trainBody, http.StatusAccepted, &created)
	done := awaitDone(t, first, created.ID)
	if done.Status != "done" || done.Steps != 400 {
		t.Fatalf("first run: %+v", done)
	}
	if done.Resumed {
		t.Fatal("restored resume state written under another SpecVersion")
	}
	want := records(first, created.ID)

	// A restarted process: a new server over the same directory. The
	// resubmission is driven through the job table so its event stream
	// is watched from before the first event.
	st2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newServer(st2, "", 2, context.Background())
	second := httptestServer(t, s2)
	var events <-chan jobs.Event
	j, _, err := s2.table.Submit(key, func(j *jobs.Job) {
		j.Kind = "train"
		events, _ = j.Subscribe() // before the job's goroutine starts
	}, func(ctx context.Context, j *jobs.Job) (any, error) { return s2.trainLocal(ctx, j, spec) })
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	for msg := range events {
		if msg.Name == "step" {
			t.Fatal("the resubmission ran a training step")
		}
	}
	if v := j.View(); v.Status != jobs.Done || v.Steps != 400 || v.Resumed {
		t.Fatalf("resubmission after restart: %+v", v)
	}
	if got := records(second, j.ID); !bytes.Equal(got, want) {
		t.Fatalf("records after restart differ:\nfirst:  %s\nsecond: %s", want, got)
	}
}

// TestEvictedTrainAnsweredFromStore runs a server that remembers one
// finished job: once train B finishes, train A is evicted and its id
// answers 404. Resubmitting A's spec is a new job, which the run
// registry answers without a training step, with the same records.
func TestEvictedTrainAnsweredFromStore(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(st, "", 2, context.Background())
	s.table = jobs.New(st.Dir(), "", 1, s.clock, simulatedBytes, context.Background())
	base := httptestServer(t, s)
	specA := `{"model":"lenet5s","strategy":"LinearFDA","k":1,"batch":8,"steps":20,"eval_every":10,"seed":61}`
	specB := `{"model":"lenet5s","strategy":"LinearFDA","k":1,"batch":8,"steps":20,"eval_every":10,"seed":62}`
	records := func(id string) json.RawMessage {
		t.Helper()
		var body struct{ Records json.RawMessage }
		getJSON(t, base+"/v1/runs/"+id+"/records", http.StatusOK, &body)
		return body.Records
	}

	var a, b jobs.View
	postJSON(t, base+"/v1/train", specA, http.StatusAccepted, &a)
	if done := awaitDone(t, base, a.ID); done.Status != jobs.Done {
		t.Fatalf("train A: %+v", done)
	}
	want := records(a.ID)
	postJSON(t, base+"/v1/train", specB, http.StatusAccepted, &b)
	if done := awaitDone(t, base, b.ID); done.Status != jobs.Done {
		t.Fatalf("train B: %+v", done)
	}
	getJSON(t, base+"/v1/runs/"+a.ID, http.StatusNotFound, nil)

	spec, err := dist.ParseJobSpec([]byte(specA))
	if err != nil {
		t.Fatal(err)
	}
	var events <-chan jobs.Event
	j, existing, err := s.table.Submit(spec.Key(), func(j *jobs.Job) {
		j.Kind = "train"
		events, _ = j.Subscribe() // before the job's goroutine starts
	}, func(ctx context.Context, j *jobs.Job) (any, error) { return s.trainLocal(ctx, j, spec) })
	if err != nil {
		t.Fatal(err)
	}
	if existing || j.ID == a.ID {
		t.Fatalf("resubmitting evicted A got job %s (existing=%v), want a new job", j.ID, existing)
	}
	<-j.Done()
	for msg := range events {
		if msg.Name == "step" {
			t.Fatal("the resubmission of an evicted train ran a training step")
		}
	}
	if got := records(j.ID); !bytes.Equal(got, want) {
		t.Fatalf("records of the resubmission differ:\nfirst: %s\nagain: %s", want, got)
	}
}
