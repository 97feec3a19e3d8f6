package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/jobs"
	"repro/internal/runstore"
	"repro/internal/workload"
)

// This file is the server half of the load-generation story (DESIGN.md
// §13): the -max-queue admission cap, the -record trace journal under
// full handler concurrency, and the end-to-end thousand-job exercise
// driving the workload engine against a live server.

// loadServer boots a server with direct access to the *server value,
// so tests can wire the admission cap and trace recorder and read the
// in-flight counter.
func loadServer(t *testing.T, dir string) (*server, *httptest.Server) {
	t.Helper()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(st, "", 2, context.Background())
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestAdmissionCap(t *testing.T) {
	s, ts := loadServer(t, t.TempDir())
	s.table.MaxQueue = 2

	// Two long-running training jobs fill the queue. Steps is far more
	// work than the test will wait for; the jobs are cancelled below.
	submit := func(seed int) jobs.View {
		var v jobs.View
		postJSON(t, ts.URL+"/v1/train",
			fmt.Sprintf(`{"model":"lenet5s","strategy":"LinearFDA","k":1,"batch":8,"steps":100000,"eval_every":50000,"seed":%d}`, seed),
			http.StatusAccepted, &v)
		return v
	}
	j1, j2 := submit(1), submit(2)

	// The third submission must be refused: 503, Retry-After, and a
	// structured body naming the cap.
	resp, err := http.Post(ts.URL+"/v1/train", "application/json",
		strings.NewReader(`{"model":"lenet5s","strategy":"LinearFDA","k":1,"batch":8,"steps":100000,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap submit = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	var body struct {
		Error    string `json:"error"`
		InFlight int64  `json:"in_flight"`
		MaxQueue int    `json:"max_queue"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding 503 body: %v", err)
	}
	if body.Error == "" || body.MaxQueue != 2 || body.InFlight != 2 {
		t.Fatalf("503 body %+v, want error text, max_queue=2, in_flight=2", body)
	}

	// Sweeps share the same admission gate.
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":1}`,
		http.StatusServiceUnavailable, nil)

	// Reads are never capped: the server sheds new work, not visibility
	// into existing work.
	getJSON(t, ts.URL+"/v1/runs", http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/store", http.StatusOK, nil)

	// Resubmitting a queued spec is a dedupe hit, not a new admission.
	var dup jobs.View
	postJSON(t, ts.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","k":1,"batch":8,"steps":100000,"eval_every":50000,"seed":1}`,
		http.StatusOK, &dup)
	if dup.ID != j1.ID {
		t.Fatalf("dedupe under cap returned job %s, want %s", dup.ID, j1.ID)
	}

	// Cancelling drains the queue and admission reopens: a job seen
	// terminal has left the in-flight count, so a submission right after
	// the first cancellation is admitted while the second job still runs.
	cancel := func(id string) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		awaitDone(t, ts.URL, id)
	}
	cancel(j1.ID)
	j4 := submit(4)
	for _, id := range []string{j2.ID, j4.ID} {
		cancel(id)
	}
}

// TestConcurrentRecordingReplay pins the admission-order recording
// contract: a trace recorded under full handler concurrency is valid
// (consecutive seqs, monotone offsets, CRCs intact) and replaying it
// issues exactly the recorded request multiset.
func TestConcurrentRecordingReplay(t *testing.T) {
	s, ts := loadServer(t, t.TempDir())
	var buf bytes.Buffer
	tw, err := workload.NewTraceWriter(&buf, "fdaserve", s.clock)
	if err != nil {
		t.Fatal(err)
	}
	s.recorder = tw

	// Mixed traffic from many goroutines. The train posts carry a bogus
	// strategy: recording happens before validation, so they land in the
	// trace but never become jobs — the test exercises concurrency, not
	// training throughput.
	type issue struct{ kind, path, body string }
	const workers, perWorker = 12, 20
	issuedCh := make(chan issue, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch (w + i) % 3 {
				case 0:
					body := fmt.Sprintf(`{"model":"lenet5s","strategy":"Nope","seed":%d}`, w*perWorker+i)
					resp, err := http.Post(ts.URL+"/v1/train", "application/json", strings.NewReader(body))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					issuedCh <- issue{"train", "/v1/train", body}
				case 1:
					resp, err := http.Get(ts.URL + "/v1/store")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					issuedCh <- issue{"store", "/v1/store", ""}
				default:
					resp, err := http.Get(ts.URL + "/v1/runs")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					issuedCh <- issue{"status", "/v1/runs", ""}
				}
			}
		}(w)
	}
	wg.Wait()
	close(issuedCh)
	if err := tw.Err(); err != nil {
		t.Fatalf("recorder failed: %v", err)
	}

	issued := map[issue]int{}
	for is := range issuedCh {
		issued[is]++
	}

	// The trace must validate despite arbitrary handler interleaving.
	_, reqs, err := workload.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("concurrently recorded trace fails validation: %v", err)
	}
	if len(reqs) != workers*perWorker {
		t.Fatalf("trace has %d entries, want %d", len(reqs), workers*perWorker)
	}

	// Replaying the trace through the engine issues the same multiset.
	replayed := map[issue]int{}
	var mu sync.Mutex
	target := targetFunc(func(r workload.Request) workload.Outcome {
		mu.Lock()
		replayed[issue{string(r.Kind), r.Path, string(r.Body)}]++
		mu.Unlock()
		return workload.Outcome{Status: 200}
	})
	stats := workload.Run(reqs, target, workload.RunOptions{Clock: &clock.Virtual{}})
	if stats.Issued != int64(workers*perWorker) {
		t.Fatalf("replay issued %d requests, want %d", stats.Issued, workers*perWorker)
	}
	for is, n := range issued {
		if replayed[is] != n {
			t.Fatalf("request %+v: recorded %d, replayed %d", is, n, replayed[is])
		}
	}
	if len(replayed) != len(issued) {
		t.Fatalf("replay produced %d distinct requests, issued %d", len(replayed), len(issued))
	}
}

type targetFunc func(workload.Request) workload.Outcome

func (f targetFunc) Do(r workload.Request) workload.Outcome { return f(r) }

// TestLoadE2EThousandConcurrentJobs drives the full path — workload
// schedule → open-loop runner → live fdaserve — and checks that the
// server sustains >=1000 concurrently admitted Tiny training jobs while
// the report carries per-kind latency percentiles. The jobs are
// distributed lenet5s sessions: each is fully admitted and running (its
// fabric coordinator is listening for its worker) but holds no CPU, so
// the test measures concurrency scaling — admission, job bookkeeping,
// sockets — rather than the runner machine's arithmetic throughput.
func TestLoadE2EThousandConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-job load test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("load test measures throughput; -race instrumentation distorts it")
	}
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(st, "", 2, ctx)
	s.fabricAddr = "127.0.0.1:0" // every job coordinates on its own ephemeral port
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	spec := workload.Spec{
		// ~1.4k requests in a second of schedule time, ~19/20 of them
		// train submissions.
		Arrival:     workload.Arrival{Process: "poisson", Rate: 1400},
		DurationSec: 1,
		Seed:        99,
		Mix: []workload.MixEntry{
			{Kind: workload.KindTrain, Weight: 20, Train: &workload.TrainTemplate{
				// Tiny scale: lenet5s, one worker per job. Distinct seeds
				// per request defeat dedupe, so every submission is its
				// own admitted job.
				Model: "lenet5s", Strategy: "LinearFDA", K: 1, Batch: 8,
				Steps: 30, EvalEvery: 30, SeedBase: 10000, Distributed: true,
			}},
			{Kind: workload.KindStore, Weight: 1},
			{Kind: workload.KindStatus, Weight: 1},
		},
	}
	reqs, err := spec.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	trains := 0
	for _, r := range reqs {
		if r.Kind == workload.KindTrain {
			trains++
		}
	}
	if trains < 1000 {
		t.Fatalf("schedule has %d train requests, need >=1000 (raise Rate)", trains)
	}

	target, err := workload.NewHTTPTarget(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	stats := workload.Run(reqs, target, workload.RunOptions{
		Clock:       clock.Wall(),
		MaxInFlight: 2048,
		DurationNS:  int64(spec.DurationSec * 1e9),
	})

	// Every submission has returned and no held job can finish on its
	// own, so the in-flight counter now reads the sustained concurrency.
	peak := s.table.Admission().InFlight

	// Release: cancelling the base context closes every coordinator,
	// driving every job to a terminal status.
	cancel()
	deadline := time.Now().Add(2 * time.Minute)
	for s.table.Admission().InFlight > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still in flight after release", s.table.Admission().InFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.table.Wait()

	if stats.Errors != 0 {
		t.Fatalf("run reported %d unexpected errors: %+v", stats.Errors, stats)
	}
	if stats.Issued != int64(len(reqs)) || stats.OK != stats.Issued {
		t.Fatalf("issued/ok = %d/%d, want %d/%d", stats.Issued, stats.OK, len(reqs), len(reqs))
	}
	if peak < 1000 {
		t.Fatalf("peak concurrent jobs = %d, want >=1000", peak)
	}
	t.Logf("peak concurrent jobs: %d; achieved %.0f rps", peak, stats.AchievedRPS)

	// The report must carry per-kind percentiles for every scheduled kind.
	report := workload.BuildReport(&spec, stats)
	want := map[workload.Kind]bool{workload.KindTrain: false, workload.KindStore: false, workload.KindStatus: false}
	for _, ks := range report.Load.Kinds {
		if _, ok := want[ks.Kind]; !ok {
			t.Fatalf("report carries unscheduled kind %s: %+v", ks.Kind, ks)
		}
		want[ks.Kind] = true
		if ks.OK != ks.Issued || ks.P50Ms <= 0 || ks.P50Ms > ks.P95Ms || ks.P95Ms > ks.P99Ms {
			t.Fatalf("%s: ok %d of %d, p50/p95/p99 = %g/%g/%g ms", ks.Kind, ks.OK, ks.Issued, ks.P50Ms, ks.P95Ms, ks.P99Ms)
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("report missing kind %s: %+v", k, report.Load.Kinds)
		}
	}
}
