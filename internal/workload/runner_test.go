package workload

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

// scriptedTarget answers each kind with a fixed status.
type scriptedTarget struct {
	status  map[Kind]int
	inCalls atomic.Int64
}

func (s *scriptedTarget) Do(req Request) Outcome {
	s.inCalls.Add(1)
	return Outcome{Status: s.status[req.Kind]}
}

func TestRunClassifiesOutcomes(t *testing.T) {
	reqs := []Request{
		{Seq: 0, Offset: 0, Kind: KindTrain},
		{Seq: 1, Offset: 10, Kind: KindTrain},
		{Seq: 2, Offset: 20, Kind: KindStatus},
		{Seq: 3, Offset: 30, Kind: KindStore},
		{Seq: 4, Offset: 40, Kind: KindRecords},
		{Seq: 5, Offset: 50, Kind: KindCancel},
	}
	target := &scriptedTarget{status: map[Kind]int{
		KindTrain:   200, // OK
		KindStatus:  503, // rejected by the admission cap
		KindStore:   500, // genuine error
		KindRecords: 404, // poll race: records before done
		KindCancel:  409, // poll race: cancel after done
	}}
	stats := Run(reqs, target, RunOptions{Clock: &clock.Virtual{}, DurationNS: 60})
	if stats.Scheduled != 6 || stats.Issued != 6 {
		t.Fatalf("scheduled/issued = %d/%d, want 6/6", stats.Scheduled, stats.Issued)
	}
	if stats.OK != 2 || stats.Rejected != 1 || stats.Errors != 1 || stats.Conflicts != 2 {
		t.Fatalf("ok/rejected/errors/conflicts = %d/%d/%d/%d, want 2/1/1/2",
			stats.OK, stats.Rejected, stats.Errors, stats.Conflicts)
	}
	byKind := map[Kind]KindStats{}
	for _, ks := range stats.Kinds {
		byKind[ks.Kind] = ks
	}
	if ks := byKind[KindTrain]; ks.OK != 2 || ks.Scheduled != 2 {
		t.Fatalf("train stats %+v, want 2 ok of 2 scheduled", ks)
	}
	if ks := byKind[KindStatus]; ks.Rejected != 1 {
		t.Fatalf("status stats %+v, want 1 rejected", ks)
	}
	if target.inCalls.Load() != 6 {
		t.Fatalf("target saw %d calls, want 6", target.inCalls.Load())
	}
}

// blockingTarget holds every request until release closes, forcing the
// in-flight bound to bind.
type blockingTarget struct {
	release chan struct{}
	peak    atomic.Int64
	cur     atomic.Int64
}

func (b *blockingTarget) Do(req Request) Outcome {
	n := b.cur.Add(1)
	for {
		p := b.peak.Load()
		if n <= p || b.peak.CompareAndSwap(p, n) {
			break
		}
	}
	<-b.release
	b.cur.Add(-1)
	return Outcome{Status: 200}
}

func TestRunBoundsInFlight(t *testing.T) {
	const n, bound = 64, 8
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Seq: int64(i), Offset: int64(i), Kind: KindStore}
	}
	target := &blockingTarget{release: make(chan struct{})}
	done := make(chan RunStats, 1)
	go func() {
		done <- Run(reqs, target, RunOptions{Clock: &clock.Virtual{}, MaxInFlight: bound})
	}()
	// The runner must stall at the bound; releasing lets it finish.
	for target.cur.Load() < bound {
	}
	close(target.release)
	stats := <-done
	if target.peak.Load() > bound {
		t.Fatalf("observed %d concurrent requests, bound is %d", target.peak.Load(), bound)
	}
	if stats.MaxInFlight > bound {
		t.Fatalf("reported max in-flight %d exceeds bound %d", stats.MaxInFlight, bound)
	}
	if stats.OK != n {
		t.Fatalf("ok = %d, want %d", stats.OK, n)
	}
	if stats.Delayed == 0 {
		t.Fatal("expected dispatch stalls to be counted in Delayed")
	}
}

func TestRunStopAbortsEarly(t *testing.T) {
	reqs := make([]Request, 100)
	for i := range reqs {
		reqs[i] = Request{Seq: int64(i), Offset: int64(i), Kind: KindStore}
	}
	stop := make(chan struct{})
	close(stop)
	stats := Run(reqs, &scriptedTarget{status: map[Kind]int{KindStore: 200}},
		RunOptions{Clock: &clock.Virtual{}, Stop: stop})
	if stats.Issued != 0 {
		t.Fatalf("issued %d requests after stop, want 0", stats.Issued)
	}
}

func TestNewHTTPTargetRejectsEmptyBaseList(t *testing.T) {
	for _, addr := range []string{"", " ", " / "} {
		if _, err := NewHTTPTarget(addr); err == nil {
			t.Errorf("NewHTTPTarget(%q) accepted an empty base URL", addr)
		}
	}
	for _, addr := range []string{",", "http://a,http://b", " http://a/ ,"} {
		if _, err := NewHTTPTarget(addr); err == nil || !strings.Contains(err.Error(), "fdagate") {
			t.Errorf("NewHTTPTarget(%q): err = %v, want a refusal naming fdagate", addr, err)
		}
	}
	tg, err := NewHTTPTarget(" http://a/ ")
	if err != nil {
		t.Fatal(err)
	}
	if tg.base != "http://a" {
		t.Fatalf("base = %q, want http://a", tg.base)
	}
}

// TestResolve pins the request → (method, path) mapping for every kind:
// before any job id is known, once one is, and for recorded requests
// that carry their own path.
func TestResolve(t *testing.T) {
	fresh, err := NewHTTPTarget("http://only")
	if err != nil {
		t.Fatal(err)
	}
	known, err := NewHTTPTarget("http://only")
	if err != nil {
		t.Fatal(err)
	}
	known.addID("j1")
	known.addID("j1") // a dedupe hit does not add a second poll target
	known.addID("")

	cases := []struct {
		name         string
		tg           *HTTPTarget
		req          Request
		method, path string
	}{
		{"train", fresh, Request{Kind: KindTrain}, http.MethodPost, "/v1/train"},
		{"sweep", fresh, Request{Kind: KindSweep}, http.MethodPost, "/v1/runs"},
		{"status/no id", fresh, Request{Kind: KindStatus}, http.MethodGet, "/v1/runs"},
		{"records/no id", fresh, Request{Kind: KindRecords}, http.MethodGet, "/v1/store"},
		{"store", fresh, Request{Kind: KindStore}, http.MethodGet, "/v1/store"},
		{"cancel/no id", fresh, Request{Kind: KindCancel}, http.MethodGet, "/v1/runs"},

		{"train/known", known, Request{Kind: KindTrain}, http.MethodPost, "/v1/train"},
		{"sweep/known", known, Request{Kind: KindSweep}, http.MethodPost, "/v1/runs"},
		{"status/known", known, Request{Kind: KindStatus}, http.MethodGet, "/v1/runs/j1"},
		{"records/known", known, Request{Kind: KindRecords}, http.MethodGet, "/v1/runs/j1/records"},
		{"store/known", known, Request{Kind: KindStore}, http.MethodGet, "/v1/store"},
		{"cancel/known", known, Request{Kind: KindCancel}, http.MethodDelete, "/v1/runs/j1"},

		{"train/path", known, Request{Kind: KindTrain, Path: "/v1/train"}, http.MethodPost, "/v1/train"},
		{"sweep/path", known, Request{Kind: KindSweep, Path: "/v1/runs"}, http.MethodPost, "/v1/runs"},
		{"status/path", known, Request{Kind: KindStatus, Path: "/v1/runs/x9"}, http.MethodGet, "/v1/runs/x9"},
		{"records/path", known, Request{Kind: KindRecords, Path: "/v1/runs/x9/records"}, http.MethodGet, "/v1/runs/x9/records"},
		{"store/path", known, Request{Kind: KindStore, Path: "/v1/store/abc"}, http.MethodGet, "/v1/store/abc"},
		{"cancel/path", known, Request{Kind: KindCancel, Path: "/v1/runs/x9"}, http.MethodDelete, "/v1/runs/x9"},
	}
	seen := map[Kind]bool{}
	for _, c := range cases {
		seen[c.req.Kind] = true
		method, path := c.tg.resolve(c.req)
		if method != c.method || path != c.path {
			t.Errorf("%s: resolved to %s %s, want %s %s", c.name, method, path, c.method, c.path)
		}
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("kind %s has no resolve case", k)
		}
	}
	if len(known.ids) != 1 {
		t.Errorf("known ids %q, want [j1]", known.ids)
	}
}

// TestHTTPTargetLearnsIDs drives Do against a stub API: a submission's
// returned id becomes the target of the next poll.
func TestHTTPTargetLearnsIDs(t *testing.T) {
	var (
		mu  sync.Mutex
		got []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Method+" "+r.URL.Path)
		mu.Unlock()
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]string{"id": "j7"})
		}
	}))
	defer ts.Close()
	tg, err := NewHTTPTarget(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Kind: KindStatus},
		{Kind: KindTrain, Body: json.RawMessage(`{"model":"lenet5s"}`)},
		{Kind: KindStatus},
	} {
		if out := tg.Do(req); out.Err != nil || out.Status < 200 || out.Status > 299 {
			t.Fatalf("%s: outcome %+v", req.Kind, out)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"GET /v1/runs", "POST /v1/train", "GET /v1/runs/j7"}; !slices.Equal(got, want) {
		t.Fatalf("server saw %q, want %q", got, want)
	}
}
