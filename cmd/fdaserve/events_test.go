package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/runstore"
)

// TestEventsSlowConsumerNoLeak pins the SSE endpoint's failure modes:
// a subscriber that stops reading must not stall the training run (the
// broker drops events rather than block), a subscriber that disconnects
// mid-run must not strand its handler, and once the job finishes and
// every client is gone the server holds no leftover goroutines.
func TestEventsSlowConsumerNoLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training session")
	}
	baseline := runtime.NumGoroutine()

	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st, "", 2, context.Background())
	ts := httptest.NewServer(srv.routes())

	var v jobs.View
	postJSON(t, ts.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","k":2,"batch":8,"steps":120,"eval_every":30,"seed":11}`,
		http.StatusAccepted, &v)

	// Slow consumer: subscribes, reads one byte, then never drains again.
	slow, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Body.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}

	// Disconnecting consumer: reads a little, then drops mid-run.
	drop, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drop.Body.Read(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	drop.Body.Close()

	final := waitStatus(t, ts, v.ID, jobs.Done)
	if final.Steps != 120 {
		t.Fatalf("run finished at %d steps, want 120 — a consumer stalled it", final.Steps)
	}

	slow.Body.Close()
	ts.Close()
	srv.table.Wait()

	// Everything is shut down; the goroutine count must return to the
	// pre-test baseline (modulo runtime noise). Idle client connections
	// are flushed each round so their transport goroutines don't read as
	// server leaks.
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
