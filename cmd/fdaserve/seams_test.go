package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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
// gateway columns last moved when parsed specs became canonical (a
// strategy parameter the strategy does not read prints as 0); the two
// registry columns change only with runstore.SpecVersion. A
// resubmission after an upgrade must find the result and resume state
// written before it, on the replica affinity routing sent it to before.
func TestTrainKeyGolden(t *testing.T) {
	golden := []struct{ body, key, run, resume, addr string }{
		{`{"model":"lenet5s","strategy":"LinearFDA"}`,
			"train|lenet5s|LinearFDA|0.052360000000000004|0|5|32|200|20|0|iid|1",
			"10212130b8a1933cfe20280defb0fcb57cce2f2287bfe049db1f73ce62e4b152",
			"081998e8eda1f349a80dbda47b089bb362743c71abd2344acdd2a81d6e52727e",
			"d0e856918b953569e033e760160fe81b7abb1f8daa20c7db8720b49d58672433"},
		{`{"strategy":"LinearFDA","seed":1,"model":"lenet5s","tau":10}`,
			"train|lenet5s|LinearFDA|0.052360000000000004|0|5|32|200|20|0|iid|1",
			"10212130b8a1933cfe20280defb0fcb57cce2f2287bfe049db1f73ce62e4b152",
			"081998e8eda1f349a80dbda47b089bb362743c71abd2344acdd2a81d6e52727e",
			"d0e856918b953569e033e760160fe81b7abb1f8daa20c7db8720b49d58672433"},
		{`{"model":"lenet5s","strategy":"LinearFDA","theta":0.05,"k":4,"steps":60,"eval_every":10}`,
			"train|lenet5s|LinearFDA|0.05|0|4|32|60|10|0|iid|1",
			"2d37873c4f2fffc79db50b2b7c0583b3c83f3f9a864d11044a19c0383ddc5b3b",
			"b71e496ea38096247eab22a6f07591419befdce5e8446da76b36b97e7214c445",
			"82485bfe34ae11752ad308c26043fead6260887a3085dafd6ca07b0ed5bcaf02"},
		{`{"model":"vgg16s","strategy":"Synchronous","k":2,"batch":16,"steps":30,"seed":9}`,
			"train|vgg16s|Synchronous|0|0|2|16|30|20|0|iid|9",
			"16814cac35d153c25ccb206c7bc39a45a61118ab2580c8ad735d50531eb5517e",
			"d5325afd9377ce99cb94f1e9071115cd0efd37dcf91bc1ecf26283c43c84d603",
			"293e13bdb6d243076356dbc583f5fe8966095f471be5e08caaf24735a1ab272c"},
		{`{"model":"lenet5s","strategy":"LocalSGD","tau":5,"het":"label0","target":0.9}`,
			"train|lenet5s|LocalSGD|0|5|5|32|200|20|0.9|label0|1",
			"c24ef450627a11fb7979d95e7e3fd0c4a5cd4a26d09a88b23470b86b09ca4dcf",
			"132e8257cc7c4c8bbcd4ae6101a28577f7d18dee4d9779d211f023cb8d4f8b75",
			"52456420d7b32c529c5f1f29aa8c995c497abb11b063dafffd49eca0af0e634b"},
		{`{"model":"lenet5s","strategy":"FedAdam","het":"pct60","k":8,"seed":42}`,
			"train|lenet5s|FedAdam|0|0|8|32|200|20|0|pct60|42",
			"c81809116856bb99938c0d00ad9a35cd3081da30a0f10b573ea591d0af27940d",
			"3bcb2b54c65f029bc95b155dc815d4e9ccb3272ad1c034b0e89e1886ef4785d3",
			"39cf4ed5e6da8820a72e12710d32f291e046e57dc807306c86b40056f7750bc4"},
		{`{"model":"lenet5s","strategy":"LinearFDA","distributed":true,"k":2,"steps":20}`,
			"train|lenet5s|LinearFDA|0.052360000000000004|0|2|32|20|20|0|iid|1|dist",
			"fff9cb0ac3c1adef64b87e31017c0a9256c049cb9eed37eb1ed51f9350d79681",
			"a611793da97842ae96d14df8c7eea9ff553da0ba8b0c61817f6d0c384de8175b",
			"13017b02b3bac5aa87d950292734b1bdd9f2b0f086ed19d1a3b7cbc7145545a7"},
		{`{"model":"densenet121s","strategy":"OracleFDA","theta":1e-3,"target":0.75,"eval_every":5}`,
			"train|densenet121s|OracleFDA|0.001|0|5|32|200|5|0.75|iid|1",
			"d95308a997b0b219613dd09a0a0928fea2810ee0126ff325a13f9f6c28a9d7f5",
			"cd3e9cf37f2401ffcbb5ca235d239722071ec98f589665afd9dd6a457928ad7d",
			"eef59a389b1aad9a45d026e1683823031233ad8bee25c276ebf611deba73055a"},
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
}

// TestIgnoredFieldsShareOneKey pins the canonical form, strategy by
// strategy: bodies that differ only in a strategy parameter the strategy
// does not read (Θ outside the FDA family, τ outside LocalSGD) or in the
// spelling of one data split (pct60, pct60.0, pct6e1) parse to one key,
// one run address and one affinity address, while bodies that differ in
// a parameter the strategy reads keep theirs apart. A negative Θ, where Θ is
// read, is refused by the parser and so carries no affinity either.
func TestIgnoredFieldsShareOneKey(t *testing.T) {
	for _, c := range []struct {
		strategy   string
		theta, tau bool // the strategy parameters it reads
	}{
		{"LinearFDA", true, false}, {"SketchFDA", true, false}, {"OracleFDA", true, false},
		{"Synchronous", false, false}, {"LocalSGD", false, true}, {"FedAvgM", false, false}, {"FedAdam", false, false},
	} {
		body := func(extra string) string {
			return fmt.Sprintf(`{"model":"lenet5s","strategy":%q%s}`, c.strategy, extra)
		}
		for _, f := range []struct {
			reads    bool
			variants []string
		}{
			{c.theta, []string{"", `,"theta":0.01`, `,"theta":0.5`}},
			{c.tau, []string{"", `,"tau":3`, `,"tau":7`}},
			// Spellings of one data split are one job.
			{false, []string{`,"het":"pct60"`, `,"het":"pct60.0"`, `,"het":"pct6e1"`}},
			{false, []string{`,"het":"label0"`, `,"het":"label00"`, `,"het":"label+0"`}},
		} {
			ids := map[[3]string]bool{}
			for _, v := range f.variants {
				key := bodyKey(t, body(v))
				addr, ok := cluster.AffinityAddress("train", []byte(body(v)))
				if !ok {
					t.Fatalf("%s: no affinity address", body(v))
				}
				ids[[3]string{key, trainSpec(key).Hash(), addr}] = true
			}
			want := 1
			if f.reads {
				want = len(f.variants)
			}
			if len(ids) != want {
				t.Errorf("%s %v: %d distinct (key, run, affinity) triples, want %d", c.strategy, f.variants, len(ids), want)
			}
		}
		if c.theta {
			bad := body(`,"theta":-1`)
			if _, err := dist.ParseJobSpec([]byte(bad)); err == nil {
				t.Errorf("%s admitted", bad)
			}
			if addr, ok := cluster.AffinityAddress("train", []byte(bad)); ok {
				t.Errorf("%s routed to %s", bad, addr)
			}
		}
	}
}

// TestSubmitUnknownFieldsRefused pins strict request bodies on both
// submission endpoints: a field the spec does not have, whether one the
// server once took (topk, qbits) or a misspelling, is a 400 that names
// it, as is a second value after the body, and no job is created. A
// lenient decoder would admit such a body as the job it names without
// the extra, under that job's key.
func TestSubmitUnknownFieldsRefused(t *testing.T) {
	ts := testServer(t, t.TempDir())
	for _, c := range []struct{ path, body, field string }{
		{"/v1/train", `{"model":"lenet5s","strategy":"LinearFDA","topk":0,"qbits":0}`, `"topk"`},
		{"/v1/train", `{"model":"lenet5s","strategy":"Synchronous","topk":2}`, `"topk"`},
		{"/v1/train", `{"model":"lenet5s","strategy":"Synchronous","qbits":40}`, `"qbits"`},
		{"/v1/train", `{"model":"lenet5s","strategy":"LinearFDA","stpes":20}`, `"stpes"`},
		{"/v1/runs", `{"experiment":"fig3","scael":"tiny"}`, `"scael"`},
		{"/v1/train", `{"model":"lenet5s","strategy":"LinearFDA"} {"topk":2}`, "data after the JSON value"},
	} {
		var errResp struct {
			Error string `json:"error"`
		}
		postJSON(t, ts.URL+c.path, c.body, http.StatusBadRequest, &errResp)
		if !strings.Contains(errResp.Error, c.field) {
			t.Errorf("%s %s: error %q does not name %q", c.path, c.body, errResp.Error, c.field)
		}
	}
	var views []jobs.View
	getJSON(t, ts.URL+"/v1/runs", http.StatusOK, &views)
	if len(views) != 0 {
		t.Fatalf("refused submissions created %d jobs", len(views))
	}
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
