package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

// stubReplica is a minimal fdaserve stand-in: it accepts submissions,
// serves id-scoped reads, and can be flipped into overload (503) or
// dead (connection reset) states.
type stubReplica struct {
	ts       *httptest.Server
	submits  atomic.Int64
	overload atomic.Bool
	dead     atomic.Bool
	// jobs is the "jobs" object of the /v1/metrics body.
	jobs atomic.Pointer[string]
}

func newStubReplica(t *testing.T, name string) *stubReplica {
	t.Helper()
	s := &stubReplica{}
	idle := `{"queued":0,"running":0}`
	s.jobs.Store(&idle)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/train", func(w http.ResponseWriter, r *http.Request) {
		if s.overload.Load() {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"at capacity"}`)
			return
		}
		n := s.submits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"r%d","kind":"train","status":"running","replica":%q}`+"\n", n, name)
	})
	mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `[{"id":"r1","status":"done","replica":%q}]`, name)
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"status":"done","replica":%q}`+"\n", r.PathValue("id"), name)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"replica":%q,"jobs":%s,"admission":{"in_flight":0,"max_queue":0,"draining":false}}`, name, *s.jobs.Load())
	})
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.dead.Load() {
			// Simulate a killed process: reset the connection without a
			// response, which the gateway sees as a transport error.
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
				return
			}
			panic("stub cannot hijack")
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func testGateway(t *testing.T, clk *clock.Virtual, stubs ...*stubReplica) (*Gateway, *httptest.Server) {
	t.Helper()
	bases := make([]string, len(stubs))
	for i, s := range stubs {
		bases[i] = s.ts.URL
	}
	pool, err := NewPool(bases, Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(pool, GatewayOptions{})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

func stubByBase(stubs []*stubReplica, base string) *stubReplica {
	for _, s := range stubs {
		if s.ts.URL == base {
			return s
		}
	}
	return nil
}

const trainBody = `{"model":"lenet5s","strategy":"LinearFDA","steps":20}`

func postTrain(t *testing.T, url string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url+"/v1/train", "application/json", strings.NewReader(trainBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	b, _ := io.ReadAll(resp.Body)
	if len(b) > 0 {
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("bad response body %q: %v", b, err)
		}
	}
	return resp, m
}

// TestGatewayMetricsAggregateAddsUp: the gateway's /v1/metrics sums
// every job status its replicas report — interrupted included, which a
// replica carries after a restart — so the statuses add up to total.
func TestGatewayMetricsAggregateAddsUp(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	aJobs := `{"queued":1,"running":2,"done":3,"failed":1,"cancelled":1,"interrupted":0,"total":8}`
	bJobs := `{"queued":0,"running":1,"done":2,"failed":0,"cancelled":0,"interrupted":1,"total":4}`
	a.jobs.Store(&aJobs)
	b.jobs.Store(&bJobs)
	_, ts := testGateway(t, &clock.Virtual{}, a, b)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Jobs map[string]int64 `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"queued": 1, "running": 3, "done": 5, "failed": 1, "cancelled": 1, "interrupted": 1, "total": 12}
	var statuses int64
	for k, w := range want {
		if m.Jobs[k] != w {
			t.Fatalf("jobs.%s = %d, want %d (aggregate %v)", k, m.Jobs[k], w, m.Jobs)
		}
		if k != "total" {
			statuses += m.Jobs[k]
		}
	}
	if len(m.Jobs) != len(want) || statuses != m.Jobs["total"] {
		t.Fatalf("statuses sum to %d, total %d (aggregate %v)", statuses, m.Jobs["total"], m.Jobs)
	}
}

func TestGatewayRoutesSubmissionToAffinityOwner(t *testing.T) {
	clk := &clock.Virtual{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b"), newStubReplica(t, "c")}
	gw, ts := testGateway(t, clk, stubs...)

	addr, ok := AffinityAddress("train", []byte(trainBody))
	if !ok {
		t.Fatal("train body carries no affinity")
	}
	owner := gw.pool.Rank(addr)[0]

	resp, m := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ownerStub := stubByBase(stubs, owner.Base)
	if got := ownerStub.submits.Load(); got != 1 {
		t.Fatalf("affinity owner received %d submissions, want 1", got)
	}
	var id string
	if err := json.Unmarshal(m["id"], &id); err != nil || !strings.HasPrefix(id, owner.prefix+"-") {
		t.Fatalf("id %q not namespaced with owner prefix %q", id, owner.prefix)
	}
	// Resubmission routes to the same owner — the cache-affinity
	// property that turns dedupe hits into actual hits.
	for i := 0; i < 5; i++ {
		postTrain(t, ts.URL)
	}
	if got := ownerStub.submits.Load(); got != 6 {
		t.Fatalf("owner received %d of 6 submissions", got)
	}

	// The id round-trips: a status poll for the namespaced id reaches
	// the owner and comes back re-namespaced.
	resp2, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var v struct {
		ID      string `json:"id"`
		Replica string `json:"replica"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.ID != id {
		t.Fatalf("poll id %q, want %q", v.ID, id)
	}
	if base := stubByBase(stubs, owner.Base); base == nil || v.Replica == "" {
		t.Fatalf("poll did not reach a replica: %+v", v)
	}
}

func TestGatewayFailsOverOn503(t *testing.T) {
	clk := &clock.Virtual{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b")}
	gw, ts := testGateway(t, clk, stubs...)

	addr, _ := AffinityAddress("train", []byte(trainBody))
	owner := gw.pool.Rank(addr)[0]
	stubByBase(stubs, owner.Base).overload.Store(true)

	resp, m := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202 via fallback", resp.StatusCode)
	}
	var id string
	json.Unmarshal(m["id"], &id)
	other := gw.pool.Rank(addr)[1]
	if !strings.HasPrefix(id, other.prefix+"-") {
		t.Fatalf("id %q not served by fallback replica %q", id, other.prefix)
	}
	// The owner sits in an overload window now: the next submission goes
	// straight to the fallback without re-hammering it.
	before := stubByBase(stubs, owner.Base).submits.Load()
	postTrain(t, ts.URL)
	if got := stubByBase(stubs, owner.Base).submits.Load(); got != before {
		t.Fatal("overloaded owner was re-attempted inside its Retry-After window")
	}
}

func TestGatewayRoutesAroundDeadReplicaAndRejoins(t *testing.T) {
	clk := &clock.Virtual{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b")}
	gw, ts := testGateway(t, clk, stubs...)

	addr, _ := AffinityAddress("train", []byte(trainBody))
	owner := gw.pool.Rank(addr)[0]
	ownerStub := stubByBase(stubs, owner.Base)
	ownerStub.dead.Store(true)

	resp, _ := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202 via survivor", resp.StatusCode)
	}
	if owner.available() {
		t.Fatal("dead replica not quarantined after transport error")
	}

	// Recovery: the replica comes back, its backoff window elapses, and
	// the poll probe reinstates it.
	ownerStub.dead.Store(false)
	clk.Advance(60e9)
	gw.pool.Poll(t.Context())
	if !owner.available() {
		t.Fatal("recovered replica not reinstated by poll probe")
	}
	before := ownerStub.submits.Load()
	postTrain(t, ts.URL)
	if ownerStub.submits.Load() != before+1 {
		t.Fatal("affinity traffic did not return to the recovered owner")
	}
}

func TestGatewayDegradesWith503WhenClusterDown(t *testing.T) {
	clk := &clock.Virtual{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b")}
	_, ts := testGateway(t, clk, stubs...)
	for _, s := range stubs {
		s.dead.Store(true)
	}
	// First submission discovers both replicas dead (transport errors);
	// it must come back as a 503 with a Retry-After, not hang or 502.
	resp, _ := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Second submission finds them quarantined: same contract.
	resp, _ = postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d (Retry-After %q), want 503 with hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestGatewayAdmissionGate(t *testing.T) {
	clk := &clock.Virtual{}
	stub := newStubReplica(t, "a")
	pool, err := NewPool([]string{stub.ts.URL}, Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(pool, GatewayOptions{MaxPending: 1})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	// Occupy the single admission slot; the next submission must be
	// refused at the gate, before any replica is contacted.
	gw.pending <- struct{}{}
	resp, _ := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 from the gateway gate", resp.StatusCode)
	}
	if stub.submits.Load() != 0 {
		t.Fatal("gated submission still reached the replica")
	}
	<-gw.pending
	if resp, _ := postTrain(t, ts.URL); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d after gate freed, want 202", resp.StatusCode)
	}
}

func TestGatewayMergesRunListings(t *testing.T) {
	clk := &clock.Virtual{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b")}
	gw, ts := testGateway(t, clk, stubs...)

	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("merged %d runs, want 2", len(views))
	}
	seen := map[string]bool{}
	for _, v := range views {
		r, _, ok := gw.pool.SplitID(v.ID)
		if !ok {
			t.Fatalf("merged id %q not namespaced", v.ID)
		}
		seen[r.prefix] = true
	}
	if len(seen) != 2 {
		t.Fatalf("listing did not cover both replicas: %v", seen)
	}

	// One replica down: the listing stays partial, not failed.
	stubs[0].dead.Store(true)
	resp2, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Fdagate-Partial") == "" {
		t.Fatalf("degraded listing: status %d, partial header %q", resp2.StatusCode, resp2.Header.Get("X-Fdagate-Partial"))
	}
}

// rewriteIDBody is a job view whose values a decode into Go types
// would re-encode differently: 1e-7 as a float64, the nested object's
// key order as a map.
const rewriteIDBody = `{"accuracy":0.9000000000000001,"id":"r3","loss":1e-7,"nested":{"z":1,"a":2}}`

func TestRewriteIDPreservesFieldBytes(t *testing.T) {
	// Every field except id must pass through byte-for-byte — the
	// property behind the routing-parity guarantee. Note 1e-7: a decode
	// into float64 would re-encode differently; RawMessage must not.
	out := rewriteID([]byte(rewriteIDBody), "abc123")
	var m map[string]json.RawMessage
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	if string(m["id"]) != `"abc123-r3"` {
		t.Fatalf("id = %s", m["id"])
	}
	if string(m["accuracy"]) != "0.9000000000000001" || string(m["loss"]) != "1e-7" {
		t.Fatalf("float bytes mangled: accuracy=%s loss=%s", m["accuracy"], m["loss"])
	}
	if string(m["nested"]) != `{"z":1,"a":2}` {
		t.Fatalf("nested object bytes mangled: %s", m["nested"])
	}
	// Bodies without a string id pass through untouched.
	for _, raw := range []string{`[1,2,3]`, `{"id":7}`, `plain`} {
		if got := rewriteID([]byte(raw), "abc123"); string(got) != raw {
			t.Fatalf("rewriteID(%q) = %q, want passthrough", raw, got)
		}
	}
}

// FuzzRewriteID feeds the gateway's id rewriter arbitrary replica
// bodies. It must never panic; it either hands the body back unchanged
// or returns an object with the same key set whose id is the old one
// namespaced; and when the body was compact JSON, every other value
// comes back byte-equal — escaping included.
func FuzzRewriteID(f *testing.F) {
	f.Add([]byte(rewriteIDBody))
	f.Add([]byte(`{"id":"7","error":"a < b && c > d"}`))
	f.Add([]byte(`{"id":"r1", "nested": [ 1, {"id":"x"} ] }` + "\n"))
	f.Add([]byte(`{"id":7}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		const prefix = "abc123"
		out := rewriteID(body, prefix)
		if bytes.Equal(out, body) {
			return
		}
		var in, got map[string]json.RawMessage
		if err := json.Unmarshal(body, &in); err != nil {
			t.Fatalf("rewrote %q, which does not decode: %v", body, err)
		}
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("rewrote %q into %q, which does not decode: %v", body, out, err)
		}
		var oldID, newID string
		if json.Unmarshal(in["id"], &oldID) != nil || json.Unmarshal(got["id"], &newID) != nil || newID != prefix+"-"+oldID {
			t.Fatalf("id %s rewritten to %s", in["id"], got["id"])
		}
		if len(got) != len(in) {
			t.Fatalf("%d keys in, %d out: %q -> %q", len(in), len(got), body, out)
		}
		var compact bytes.Buffer
		isCompact := json.Compact(&compact, body) == nil && bytes.Equal(compact.Bytes(), body)
		for k, v := range in {
			w, ok := got[k]
			if !ok {
				t.Fatalf("key %q dropped: %q -> %q", k, body, out)
			}
			if isCompact && k != "id" && !bytes.Equal(v, w) {
				t.Fatalf("value of %q changed: %s -> %s", k, v, w)
			}
		}
	})
}

// TestGatewayRelaysJobViewUnescaped: a job view fdaserve wrote with
// WriteJSON — here a failed job whose error holds "<", ">" and "&" —
// reads the same through the gateway as from the replica, every value
// byte-equal except the namespaced id.
func TestGatewayRelaysJobViewUnescaped(t *testing.T) {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{
			"id": strings.TrimPrefix(r.URL.Path, "/v1/runs/"), "status": "failed",
			"error": "comm: bundle part 1 short: 3 < 8 && a > b",
		})
	}))
	t.Cleanup(replica.Close)
	clk := &clock.Virtual{}
	pool, err := NewPool([]string{replica.URL}, Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(NewGateway(pool, GatewayOptions{}).Handler())
	t.Cleanup(gw.Close)

	get := func(url string) map[string]json.RawMessage {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	id := pool.Replicas()[0].prefix + "-7"
	direct, via := get(replica.URL+"/v1/runs/7"), get(gw.URL+"/v1/runs/"+id)
	if string(via["id"]) != `"`+id+`"` {
		t.Fatalf("id through the gateway = %s, want %q", via["id"], id)
	}
	if len(via) != len(direct) {
		t.Fatalf("keys differ: direct %v, gateway %v", direct, via)
	}
	for k, v := range direct {
		if k != "id" && string(via[k]) != string(v) {
			t.Fatalf("%s through the gateway = %s, direct %s", k, via[k], v)
		}
	}
}
