package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runstore"
)

func testServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(st, "", 2, context.Background()).routes())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
}

func postJSON(t *testing.T, url, body string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
}

// awaitDone polls a run until it leaves "running".
func awaitDone(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		var v jobView
		getJSON(t, base+"/v1/runs/"+id, http.StatusOK, &v)
		if v.Status != "running" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still executing after timeout: %+v", id, v)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestServeEndpointsAndValidation(t *testing.T) {
	ts := testServer(t, t.TempDir())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	var version map[string]string
	getJSON(t, ts.URL+"/v1/version", http.StatusOK, &version)
	if !strings.Contains(version["version"], "fdaserve") {
		t.Fatalf("version endpoint: %v", version)
	}

	var exps []struct{ Name, Artifact string }
	getJSON(t, ts.URL+"/v1/experiments", http.StatusOK, &exps)
	if len(exps) < 13 || exps[0].Name != "table2" {
		t.Fatalf("experiments listing: %+v", exps)
	}

	// Empty registry state.
	var manifests []runstore.Manifest
	getJSON(t, ts.URL+"/v1/store", http.StatusOK, &manifests)
	if len(manifests) != 0 {
		t.Fatalf("fresh store lists %d entries", len(manifests))
	}
	var views []jobView
	getJSON(t, ts.URL+"/v1/runs", http.StatusOK, &views)
	if len(views) != 0 {
		t.Fatalf("fresh server lists %d runs", len(views))
	}

	// Validation failures.
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"fig99"}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"fig3","scale":"huge"}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/runs", `not json`, http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/runs/r404", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/runs/r404/records", http.StatusNotFound, nil)
}

func TestServeRunLifecycleAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training sweep")
	}
	dir := t.TempDir()
	ts := testServer(t, dir)
	submit := `{"experiment":"smoke","scale":"tiny","seed":3}`

	// Submit; identical resubmission dedupes onto the same job.
	var created jobView
	postJSON(t, ts.URL+"/v1/runs", submit, http.StatusAccepted, &created)
	if created.ID == "" || created.Experiment != "smoke" || created.Seed != 3 {
		t.Fatalf("submit view: %+v", created)
	}
	var dup jobView
	postJSON(t, ts.URL+"/v1/runs", submit, http.StatusOK, &dup)
	if dup.ID != created.ID {
		t.Fatalf("identical spec created a second job: %s vs %s", dup.ID, created.ID)
	}

	done := awaitDone(t, ts.URL, created.ID)
	if done.Status != "done" || done.Error != "" {
		t.Fatalf("run failed: %+v", done)
	}
	if done.Cells == 0 || done.Executed != done.Cells || done.Cached != 0 {
		t.Fatalf("cold run stats: %+v", done)
	}

	// Records of a finished run decode into the record shape.
	var recs struct {
		ID      string `json:"id"`
		Records []struct {
			Figure   string  `json:"Figure"`
			Strategy string  `json:"Strategy"`
			Target   float64 `json:"Target"`
		} `json:"records"`
	}
	getJSON(t, ts.URL+"/v1/runs/"+created.ID+"/records", http.StatusOK, &recs)
	if len(recs.Records) == 0 || recs.Records[0].Figure != "smoke" {
		t.Fatalf("records endpoint: %+v", recs)
	}

	// Rendered output is served, and the registry catalog filled up.
	out, err := http.Get(ts.URL + "/v1/runs/" + created.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := fmt.Fprint(body, readAll(t, out)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "smoke") {
		t.Fatalf("output endpoint missing table: %q", body.String())
	}
	var manifests []runstore.Manifest
	getJSON(t, ts.URL+"/v1/store", http.StatusOK, &manifests)
	if len(manifests) != int(done.Cells) {
		t.Fatalf("store lists %d entries for %d cells", len(manifests), done.Cells)
	}

	// A second service instance over the same registry serves the whole
	// sweep from cache: zero executed cells.
	ts2 := testServer(t, dir)
	var again jobView
	postJSON(t, ts2.URL+"/v1/runs", submit, http.StatusAccepted, &again)
	warm := awaitDone(t, ts2.URL, again.ID)
	if warm.Status != "done" || warm.Executed != 0 || warm.Cached != done.Cells {
		t.Fatalf("warm run stats: %+v", warm)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
