package main

import (
	"bufio"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// This file pins the seams several binaries share one definition of:
// the train-job identity (body → dedupe key → run-registry addresses →
// gateway address), the instrumented HTTP shell both servers sit
// behind, and the job-goroutine lifecycle.

// TestTrainKeyGolden pins request body → canonical key → run address
// and resume-snapshot address → gateway affinity address. The key and
// gateway columns were captured before the spec moved into
// dist.JobSpec (when cluster.TrainSpec and fdaserve's trainRequest
// computed them); the two registry columns change only with
// runstore.SpecVersion. A resubmission after an upgrade must find the
// result and resume state written before it, on the replica affinity
// routing sent it to before. The compression fields join the key only
// when they compress.
func TestTrainKeyGolden(t *testing.T) {
	golden := []struct{ body, key, run, resume, addr string }{
		{`{"model":"lenet5s","strategy":"LinearFDA"}`,
			"train|lenet5s|LinearFDA|0.052360000000000004|10|5|32|200|20|0|iid|1",
			"5236fd870d2ed08fd216e14a1267cdf8db83a514b841e93e339c4bf48be63434",
			"e9ea95fd982941cd17d12e4768d735cc11b0396b7f6aa985c3eb9c1084ba0bdb",
			"1ffbfd69fc99a5c161cc8c565cfe6f3248f70ed0c21b45c6f71bec4c4e9ca706"},
		{`{"strategy":"LinearFDA","seed":1,"model":"lenet5s","tau":10}`,
			"train|lenet5s|LinearFDA|0.052360000000000004|10|5|32|200|20|0|iid|1",
			"5236fd870d2ed08fd216e14a1267cdf8db83a514b841e93e339c4bf48be63434",
			"e9ea95fd982941cd17d12e4768d735cc11b0396b7f6aa985c3eb9c1084ba0bdb",
			"1ffbfd69fc99a5c161cc8c565cfe6f3248f70ed0c21b45c6f71bec4c4e9ca706"},
		{`{"model":"lenet5s","strategy":"LinearFDA","theta":0.05,"k":4,"steps":60,"eval_every":10}`,
			"train|lenet5s|LinearFDA|0.05|10|4|32|60|10|0|iid|1",
			"14fa24ced510027b09d3fe43eeb0101106eb66efea039ef3fae1d603a7b4e312",
			"0ebfd08ba50f3627a67b2759c200a0aa350016cca571329fa3b087e4e57aa486",
			"74e02a6ecb6195fa66dcd755df6966285567c7c7a4f5c15e1659d054b005c7d9"},
		{`{"model":"lenet5s","strategy":"SketchFDA","theta":-1,"k":3,"steps":40}`,
			"train|lenet5s|SketchFDA|-1|10|3|32|40|20|0|iid|1",
			"d4071df18bc59cf8ceabfcd1535f294c463af203a951d75d97e405fff8fced02",
			"f1e4259302a8a0d15deb07b2e0e285701c4074cecb1582e53a6253f6074cbe50",
			"d8706d6f598ff70a470624dc67a49709fa6f9f6f75dc26da65060e4513e49f20"},
		{`{"model":"vgg16s","strategy":"Synchronous","k":2,"batch":16,"steps":30,"seed":9}`,
			"train|vgg16s|Synchronous|0.36708|10|2|16|30|20|0|iid|9",
			"b9768ef1419e4afaec47724f5d99b521913be753b8503e7787c8b8a0c0be6f67",
			"06e582e50c38702ce7fc99a8a23366d70fae4ba43d00802b94e037a563de01ad",
			"666b687ff70853fddeb1e38d1b9a4921c215c449ddb5cedaa1f6524b0318c890"},
		{`{"model":"lenet5s","strategy":"LocalSGD","tau":5,"het":"label0","target":0.9}`,
			"train|lenet5s|LocalSGD|0.052360000000000004|5|5|32|200|20|0.9|label0|1",
			"b9d2ba83f509d9fd30b51a6c39ec29fab7db297adbe4d799bd374c40b5cfc9fc",
			"9bdfc6829ab6e6ce712b34fdf067bf03ed1aebb1caf9c3df60ae328d8d5a1a40",
			"4592bdf15f5b40cdc96caa41a028a5fba0f8bdc226fd2f429d067d11ede38d0c"},
		{`{"model":"lenet5s","strategy":"FedAdam","het":"dir0.5","k":8,"seed":42}`,
			"train|lenet5s|FedAdam|0.052360000000000004|10|8|32|200|20|0|dir0.5|42",
			"d5ba6e8b4c9cdea31c228e993f5446ac3d01f33c8c238763c037da71a56e0154",
			"8fd67060479ef9be8ca8da2164d8805b6dbde0852ac7271786e251408ee5145b",
			"f55d208220157abcfd9687e4eb4851785217c226994dc19412a042fd252bb6d8"},
		{`{"model":"lenet5s","strategy":"LinearFDA","distributed":true,"k":2,"steps":20}`,
			"train|lenet5s|LinearFDA|0.052360000000000004|10|2|32|20|20|0|iid|1|dist",
			"212755f413cc6950d90bc22457273242c81b1ba45631bbab9e8bee97a0dfc688",
			"bc4a6979e3408601185f6ed0c29fad0fbabd358d249b1f0ee91ab1a32b94fa14",
			"19ad9a610aa5f7f3160ec5a1203141c4d4217452ea3f37aedcbe72dc6bf502b3"},
		{`{"model":"densenet121s","strategy":"OracleFDA","theta":1e-3,"target":0.75,"eval_every":5}`,
			"train|densenet121s|OracleFDA|0.001|10|5|32|200|5|0.75|iid|1",
			"da32ad86719eb8aaec32655fb35a4a13ef8579c82e855d7fb5d40b9e66cfd906",
			"15953ce107fbac134850efc2a3aceb435d32813a2f4f6b37abcbf370ba71a28a",
			"ca9f104cc2a6b8d3459e0648ccd9ef46ac25fb6fce2c0275d6ccd2125c787cdd"},
		{`{"model":"lenet5s","strategy":"LinearFDA","topk":0,"qbits":0}`,
			"train|lenet5s|LinearFDA|0.052360000000000004|10|5|32|200|20|0|iid|1",
			"5236fd870d2ed08fd216e14a1267cdf8db83a514b841e93e339c4bf48be63434",
			"e9ea95fd982941cd17d12e4768d735cc11b0396b7f6aa985c3eb9c1084ba0bdb",
			"1ffbfd69fc99a5c161cc8c565cfe6f3248f70ed0c21b45c6f71bec4c4e9ca706"},
	}
	for _, g := range golden {
		key := bodyKey(t, g.body)
		if key != g.key {
			t.Errorf("%s\n key %q\nwant %q", g.body, key, g.key)
		}
		if run := trainSpec(key).Hash(); run != g.run {
			t.Errorf("%s: run address %q, want %q", g.body, run, g.run)
		}
		if resume := trainSpec(key).Prefix("resume").Hash(); resume != g.resume {
			t.Errorf("%s: resume address %q, want %q", g.body, resume, g.resume)
		}
		if addr, ok := cluster.AffinityAddress("train", []byte(g.body)); !ok || addr != g.addr {
			t.Errorf("%s: affinity address %q (ok=%v), want %q", g.body, addr, ok, g.addr)
		}
	}

	// New with the shared spec: a compressing submission is its own job.
	seen := map[string]string{golden[0].key: golden[0].body}
	for _, body := range []string{
		`{"model":"lenet5s","strategy":"LinearFDA","topk":0.1}`,
		`{"model":"lenet5s","strategy":"LinearFDA","qbits":8}`,
		`{"model":"lenet5s","strategy":"LinearFDA","topk":0.1,"qbits":8}`,
		`{"model":"lenet5s","strategy":"LinearFDA","topk":0.1,"qbits":8,"distributed":true}`,
	} {
		key := bodyKey(t, body)
		if other, dup := seen[key]; dup {
			t.Errorf("%s and %s share key %q", body, other, key)
		}
		seen[key] = body
		if !strings.HasPrefix(key, golden[0].key+"|") {
			t.Errorf("%s: key %q does not extend the uncompressed key", body, key)
		}
	}
}

// TestTrainCompressionHonoured pins the /v1/train topk/qbits fix end
// to end: the compressed submission is admitted as a job of its own
// (it used to dedupe onto the uncompressed one and train dense), and on
// both the local and the distributed path its result is the bit-exact
// result of an in-process run of the same compressed spec.
func TestTrainCompressionHonoured(t *testing.T) {
	if testing.Short() {
		t.Skip("runs training sessions")
	}
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st, "", 2, context.Background())
	srv.fabricAddr = "127.0.0.1:0"
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	const plain = `{"model":"lenet5s","strategy":"Synchronous","k":2,"batch":16,"steps":16,"eval_every":8,"seed":7`
	spec := dist.JobSpec{Model: "lenet5s", Strategy: "Synchronous", K: 2, Batch: 16, Steps: 16, EvalEvery: 8, Seed: 7,
		TopK: 0.25, QBits: 8}.WithDefaults()
	cfg, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := core.MustRun(cfg, strat)

	result := func(id string) core.Result {
		waitStatus(t, ts, id, jobs.Done)
		var rec struct{ Records core.Result }
		getJSON(t, ts.URL+"/v1/runs/"+id+"/records", http.StatusOK, &rec)
		return rec.Records
	}
	same := func(path string, got core.Result) {
		t.Helper()
		if got.CommBytes != want.CommBytes || got.ModelBytes != want.ModelBytes || got.SyncCount != want.SyncCount ||
			math.Float64bits(got.FinalTestAcc) != math.Float64bits(want.FinalTestAcc) {
			t.Fatalf("%s compressed job: comm=%d model=%d syncs=%d acc=%v, in-process run of the spec: %d %d %d %v",
				path, got.CommBytes, got.ModelBytes, got.SyncCount, got.FinalTestAcc,
				want.CommBytes, want.ModelBytes, want.SyncCount, want.FinalTestAcc)
		}
	}

	var dense, local, remote jobs.View
	postJSON(t, ts.URL+"/v1/train", plain+`}`, http.StatusAccepted, &dense)
	postJSON(t, ts.URL+"/v1/train", plain+`,"topk":0.25,"qbits":8}`, http.StatusAccepted, &local)
	if local.ID == dense.ID {
		t.Fatal("compressed submission deduped onto the uncompressed job")
	}
	if d := result(dense.ID); d.ModelBytes == want.ModelBytes {
		t.Fatalf("dense job and compressed spec both moved %d model bytes: degenerate test", d.ModelBytes)
	}
	same("local", result(local.ID))

	postJSON(t, ts.URL+"/v1/train", plain+`,"topk":0.25,"qbits":8,"distributed":true}`, http.StatusAccepted, &remote)
	addr := waitFabricAddr(t, ts, remote.ID)
	var wg sync.WaitGroup
	for w := 0; w < spec.K; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := dist.RunWorker(context.Background(), addr, 1); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	wg.Wait()
	same("distributed", result(remote.ID))
}

// TestHTTPShellBothServers runs one table against the two surfaces that
// share cluster.HTTPShell — fdaserve's routes and the gateway's handler
// in front of it: the status is captured whether the handler sets it
// implicitly, explicitly or streams (and a streamed event reaches the
// client while the job is still running, so Flush passes through the
// status writer), unmatched paths land in one "(unmatched)" series, and
// each exposition carries exactly the two <prefix>_http_* families.
func TestHTTPShellBothServers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training session")
	}
	obs.Enable()
	defer obs.Disable()
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(st, "", 2, context.Background()).routes())
	t.Cleanup(ts.Close)
	pool, err := cluster.NewPool([]string{ts.URL}, cluster.Options{Clock: &clock.Virtual{}})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(cluster.NewGateway(pool, cluster.GatewayOptions{}).Handler())
	t.Cleanup(gts.Close)

	// A job long enough to still be running while both streams open.
	var job jobs.View
	postJSON(t, ts.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","k":2,"batch":8,"steps":1000000,"seed":3}`, http.StatusAccepted, &job)
	defer deleteRun(t, ts.URL, job.ID, http.StatusOK)

	count := func(prefix, route, code string) int64 {
		return obs.Default.Snapshot().CounterSum(prefix+"_http_requests_total", "route", route, "code", code)
	}
	for _, sh := range []struct{ prefix, base, id string }{
		{"fdaserve", ts.URL, job.ID},
		{"fdagate", gts.URL, pool.Views()[0].Prefix + "-" + job.ID},
	} {
		for _, c := range []struct {
			name, path, route string
			code              int
			stream            bool
		}{
			{"implicit 200", "/healthz", "GET /healthz", 200, false},
			{"explicit code", "/v1/runs/nope", "GET /v1/runs/{id}", 404, false},
			{"streamed", "/v1/runs/" + sh.id + "/events", "GET /v1/runs/{id}/events", 200, true},
			{"unmatched", "/no/such/route", "(unmatched)", 404, false},
		} {
			code := strconv.Itoa(c.code)
			before := count(sh.prefix, c.route, code)
			resp, err := http.Get(sh.base + c.path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.code {
				t.Fatalf("%s %s: status %d, want %d", sh.prefix, c.name, resp.StatusCode, c.code)
			}
			if c.stream {
				// The first event arrives while the handler is still
				// blocked on the running job: only a Flush delivers it.
				line, err := bufio.NewReader(resp.Body).ReadString('\n')
				if err != nil || line != "event: status\n" {
					t.Fatalf("%s %s: first streamed line %q (err %v)", sh.prefix, c.name, line, err)
				}
			}
			resp.Body.Close()
			// The request is counted when its handler returns — for the
			// stream, once the server notices the client went away.
			deadline := time.Now().Add(10 * time.Second)
			for count(sh.prefix, c.route, code) != before+1 {
				if time.Now().After(deadline) {
					t.Fatalf("%s %s: %s_http_requests_total{route=%q,code=%q} went %d → %d, want +1", sh.prefix, c.name,
						sh.prefix, c.route, code, before, count(sh.prefix, c.route, code))
				}
				time.Sleep(5 * time.Millisecond)
			}
		}

		resp, err := http.Get(sh.base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if err := obs.ValidatePrometheusText(body); err != nil {
			t.Fatalf("%s exposition does not parse: %v", sh.prefix, err)
		}
		var families []string
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "+sh.prefix+"_http_"); ok {
				families = append(families, rest)
			}
		}
		if got, want := strings.Join(families, ","), "request_seconds histogram,requests_total counter"; got != want {
			t.Fatalf("%s_http_* families: %q, want %q", sh.prefix, got, want)
		}
	}
}

// closes reports whether ch is closed (not merely sent on) within ten
// seconds.
func closes[T any](ch <-chan T) bool {
	select {
	case _, open := <-ch:
		return !open
	case <-time.After(10 * time.Second):
		return false
	}
}

// TestRunJobTerminalStatuses pins the one job lifecycle every executor
// runs under: whatever the body does — return a result, fail, observe
// its cancellation or panic — the job lands in the matching terminal
// status, leaves the admission window exactly once, and releases
// DELETE waiters (done) and SSE subscribers (the broker).
func TestRunJobTerminalStatuses(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(st, "", 1, context.Background())
	for _, c := range []struct {
		name, status, errMsg string
		cancel               bool
		body                 func(context.Context) (any, error)
	}{
		{name: "done", status: jobs.Done,
			body: func(context.Context) (any, error) { return core.Result{CommBytes: 7}, nil }},
		{name: "failing", status: jobs.Failed, errMsg: "disk full",
			body: func(context.Context) (any, error) { return nil, errors.New("disk full") }},
		{name: "cancelled", status: jobs.Cancelled, errMsg: context.Canceled.Error(), cancel: true,
			body: func(ctx context.Context) (any, error) { <-ctx.Done(); return core.Result{}, ctx.Err() }},
		{name: "panicking", status: jobs.Failed, errMsg: "panic: boom",
			body: func(context.Context) (any, error) { panic("boom") }},
	} {
		// The body holds at a gate until the test has read the admission
		// window and subscribed.
		gate := make(chan struct{})
		j, existing, err := s.table.Submit("lifecycle|"+c.name, func(j *jobs.Job) { j.Kind = "train" },
			func(ctx context.Context, _ *jobs.Job) (any, error) { <-gate; return c.body(ctx) })
		if err != nil || existing {
			t.Fatalf("%s: Submit: existing=%v err=%v", c.name, existing, err)
		}
		if n := s.table.Admission().InFlight; n != 1 {
			t.Fatalf("%s: %d jobs in the admission window after Submit, want 1", c.name, n)
		}
		events, unsub := j.Subscribe()
		close(gate)
		if c.cancel {
			j.Cancel()
		}
		if !closes(j.Done()) {
			t.Fatalf("%s: done channel never closed", c.name)
		}
		if !closes(events) {
			t.Fatalf("%s: event broker never closed", c.name)
		}
		unsub()
		v := j.View()
		if v.Status != c.status || v.Error != c.errMsg {
			t.Fatalf("%s: status %q error %q, want %q %q", c.name, v.Status, v.Error, c.status, c.errMsg)
		}
		if n := s.table.Admission().InFlight; n != 0 {
			t.Fatalf("%s: %d jobs in the admission window after the terminal status, want 0", c.name, n)
		}
	}
	s.table.Wait() // every job goroutine has returned
	if got := s.table.Tally().BytesSimulated; got != 7 {
		t.Fatalf("bytesSimulated = %d, want the done job's 7", got)
	}
}

// TestSimulatedBytes pins the byte accounting the server hands its job
// table: a sweep cell evaluated at nested accuracy targets counts its
// largest CommGB once (its byte counts are cumulative along one
// trajectory), network-sweep records are keyed per scenario cell, a
// training result passes its CommBytes through, and any other shape
// counts nothing.
func TestSimulatedBytes(t *testing.T) {
	rec := func(theta, target, gb float64) experiments.Record {
		return experiments.Record{Figure: "fig3", Model: "lenet5s", Het: "iid", Strategy: "LinearFDA",
			K: 2, Theta: theta, Target: target, CommGB: gb}
	}
	net := func(scenario string, target, gb float64) experiments.NetRecord {
		return experiments.NetRecord{Scenario: scenario, Model: "lenet5s", Strategy: "LinearFDA",
			K: 2, Theta: 1, Target: target, CommGB: gb}
	}
	for _, c := range []struct {
		name   string
		result any
		want   int64
	}{
		{"nested targets count the cell's largest once",
			[]experiments.Record{rec(1, 0.5, 0.5), rec(1, 0.7, 1.5), rec(1, 0.6, 1)}, 1.5e9},
		{"distinct cells add",
			[]experiments.Record{rec(1, 0.5, 0.5), rec(1, 0.7, 1.5), rec(2, 0.5, 0.25)}, 1.75e9},
		{"network records keyed per scenario cell",
			[]experiments.NetRecord{net("lan", 0.5, 0.5), net("lan", 0.7, 1.5), net("wan", 0.5, 0.25)}, 1.75e9},
		{"a training result passes CommBytes through", core.Result{CommBytes: 7}, 7},
		{"an empty sweep", []experiments.Record{}, 0},
		{"an unknown shape", "rendered table", 0},
		{"no result", nil, 0},
	} {
		if got := simulatedBytes(c.result); got != c.want {
			t.Errorf("%s: %d bytes, want %d", c.name, got, c.want)
		}
	}
}
