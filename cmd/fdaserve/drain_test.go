package main

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jobs"
)

// TestDrainAndDerivedRetryAfter pins the scale-out admission surface: the
// drain toggle refuses new work while letting in-flight jobs finish, the
// /v1/metrics admission block mirrors the gate, and over-cap 503s carry a
// Retry-After derived from observed job runtimes rather than a constant.
func TestDrainAndDerivedRetryAfter(t *testing.T) {
	s, ts := loadServer(t, t.TempDir())
	s.table.MaxQueue = 2

	// A completed job seeds the jobRun histograms the Retry-After
	// derivation reads.
	var warm jobs.View
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":1}`,
		http.StatusAccepted, &warm)
	awaitDone(t, ts.URL, warm.ID)

	// Drain on: healthz degrades, submissions bounce with the draining
	// flag set, reads and the admission block stay live.
	postJSON(t, ts.URL+"/v1/drain", "", http.StatusOK, nil)
	var hz struct {
		Status  string `json:"status"`
		Replica string `json:"replica"`
	}
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &hz)
	if hz.Status != "draining" {
		t.Fatalf("healthz status %q while draining, want draining", hz.Status)
	}
	resp, err := http.Post(ts.URL+"/v1/train", "application/json",
		strings.NewReader(`{"model":"lenet5s","strategy":"LinearFDA","k":1,"batch":8,"steps":100000,"seed":50}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining = %d, want 503", resp.StatusCode)
	}
	var m metricsView
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
	if !m.Admission.Draining || m.Admission.MaxQueue != 2 {
		t.Fatalf("admission block %+v, want draining=true max_queue=2", m.Admission)
	}

	// Drain off: the gate reopens.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/drain", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	// Fill the queue with held jobs; the over-cap 503 must carry an
	// integral Retry-After in the clamp range, consistent with the body.
	submit := func(seed int) jobs.View {
		var v jobs.View
		postJSON(t, ts.URL+"/v1/train",
			"{\"model\":\"lenet5s\",\"strategy\":\"LinearFDA\",\"k\":1,\"batch\":8,\"steps\":100000,\"eval_every\":50000,\"seed\":"+strconv.Itoa(seed)+"}",
			http.StatusAccepted, &v)
		return v
	}
	j1, j2 := submit(51), submit(52)
	over, err := http.Post(ts.URL+"/v1/train", "application/json",
		strings.NewReader(`{"model":"lenet5s","strategy":"LinearFDA","k":1,"batch":8,"steps":100000,"seed":53}`))
	if err != nil {
		t.Fatal(err)
	}
	defer over.Body.Close()
	if over.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap submit = %d, want 503", over.StatusCode)
	}
	sec, err := strconv.Atoi(over.Header.Get("Retry-After"))
	if err != nil || sec < 1 || sec > 30 {
		t.Fatalf("Retry-After %q, want an integer in [1,30]", over.Header.Get("Retry-After"))
	}

	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
	if m.Admission.InFlight != 2 || m.Admission.Draining {
		t.Fatalf("admission block %+v, want in_flight=2 draining=false", m.Admission)
	}

	for _, id := range []string{j1.ID, j2.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		awaitDone(t, ts.URL, id)
	}
}
