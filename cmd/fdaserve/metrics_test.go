package main

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// TestHealthzAndMetrics covers the liveness and metrics endpoints:
// healthz responds before any job exists, and metrics reflects job
// lifecycle counts, uptime and the simulated-bytes aggregate after a
// run completes.
func TestHealthzAndMetrics(t *testing.T) {
	ts := testServer(t, t.TempDir())

	var hz map[string]string
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &hz)
	if hz["status"] != "ok" {
		t.Fatalf("healthz = %v", hz)
	}
	if hz["version"] == "" {
		t.Fatal("healthz carries no version")
	}

	var m metricsView
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
	if m.Jobs.Total != 0 || m.BytesSimulated != 0 {
		t.Fatalf("fresh server metrics: %+v", m)
	}
	if m.UptimeSec < 0 {
		t.Fatalf("negative uptime %v", m.UptimeSec)
	}

	// Run one tiny sweep to completion, then the counters must move.
	var v jobView
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":1}`, http.StatusAccepted, &v)
	waitStatus(t, ts, v.ID, statusDone)

	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
	if m.Jobs.Done != 1 || m.Jobs.Total != 1 || m.Jobs.Running != 0 {
		t.Fatalf("post-run job counts: %+v", m.Jobs)
	}
	if m.BytesSimulated <= 0 {
		t.Fatalf("completed sweep contributed %d simulated bytes", m.BytesSimulated)
	}
	if m.StoreRuns <= 0 {
		t.Fatalf("completed sweep left %d cached runs", m.StoreRuns)
	}
}

// TestPromMetricsEndpoint covers GET /metrics: after HTTP traffic and a
// completed train job, the exposition parses as Prometheus text and
// carries the per-route HTTP latency histogram, the job run-time and
// queue-wait histograms, the session counters and the runtime samples.
func TestPromMetricsEndpoint(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	ts := testServer(t, t.TempDir())

	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, nil)
	var v jobView
	postJSON(t, ts.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","k":2,"batch":8,"steps":8,"eval_every":4,"seed":5}`,
		http.StatusAccepted, &v)
	waitStatus(t, ts, v.ID, statusDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("exposition content type %q", ct)
	}
	body := readAll(t, resp)
	if err := obs.ValidatePrometheusText(body); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for _, want := range []string{
		"fdaserve_http_request_seconds_bucket",
		`route="GET /v1/healthz"`,
		"fdaserve_http_requests_total",
		"fdaserve_job_run_seconds_count",
		`kind="train"`,
		"fdaserve_job_queue_wait_seconds_count",
		"fda_steps_total",
		"go_sched_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// The JSON twin carries the registry snapshot and runtime samples.
	var m metricsView
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
	if len(m.Telemetry.Counters) == 0 || len(m.Telemetry.Histograms) == 0 {
		t.Fatalf("telemetry snapshot empty: %+v", m.Telemetry)
	}
	if m.Telemetry.CounterSum("fda_steps_total") <= 0 {
		t.Fatal("fda_steps_total missing from the /v1/metrics snapshot")
	}
	if _, ok := m.Runtime["go_sched_goroutines"]; !ok {
		t.Fatalf("runtime samples missing goroutine count: %+v", m.Runtime)
	}
}

// TestAccessLog pins the structured access log: one line per request
// with method, path, route pattern, status, duration and the job id.
func TestAccessLog(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st, "", 2, context.Background())
	var buf bytes.Buffer
	srv.accessLog = slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	getJSON(t, ts.URL+"/v1/runs/r404", http.StatusNotFound, nil)
	line := buf.String()
	for _, want := range []string{
		"msg=access", "method=GET", "path=/v1/runs/r404",
		`route="GET /v1/runs/{id}"`, "status=404", "dur=", "job=r404",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log missing %q: %q", want, line)
		}
	}
}

// waitStatus polls a job until it reaches the wanted terminal status.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v jobView
		getJSON(t, ts.URL+"/v1/runs/"+id, http.StatusOK, &v)
		if v.Status == want {
			return v
		}
		if v.Status != statusRunning {
			t.Fatalf("job %s reached %q (err %q), want %q", id, v.Status, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, v.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTrainDistributedEndToEnd drives a distributed train job through
// the HTTP API: the server coordinates on its fabric address, two
// worker "processes" (dist.RunWorker in goroutines — the same code
// fdarun -worker runs) join, and the job lands done with the verified
// cluster result counted into the metrics.
func TestTrainDistributedEndToEnd(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st, "", 2, context.Background())
	srv.fabricAddr = "127.0.0.1:0"
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	// Distributed without -fabric is a client error.
	noFabric := testServer(t, t.TempDir())
	postJSON(t, noFabric.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","distributed":true}`, http.StatusBadRequest, nil)

	var v jobView
	postJSON(t, ts.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","k":2,"batch":16,"steps":16,"eval_every":8,"seed":7,"distributed":true}`,
		http.StatusAccepted, &v)

	// The coordinator listens on an ephemeral port; the job view
	// announces it once the listener is bound.
	addr := waitFabricAddr(t, ts, v.ID)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, _, errs[w] = dist.RunWorker(context.Background(), addr, 1)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	final := waitStatus(t, ts, v.ID, statusDone)
	if final.Steps != 16 {
		t.Fatalf("distributed job ran %d steps, want 16", final.Steps)
	}

	var m metricsView
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
	if m.BytesSimulated <= 0 {
		t.Fatalf("distributed run contributed %d simulated bytes", m.BytesSimulated)
	}
}

// waitFabricAddr polls the job view until the coordinator address is
// published.
func waitFabricAddr(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v jobView
		getJSON(t, ts.URL+"/v1/runs/"+id, http.StatusOK, &v)
		if v.FabricAddr != "" {
			return v.FabricAddr
		}
		if v.Status != statusRunning {
			t.Fatalf("job %s reached %q before binding its fabric listener", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("coordinator address never published")
	return ""
}
