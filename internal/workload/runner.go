package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// Outcome is one request's result as observed by the client.
type Outcome struct {
	// Status is the HTTP status code, 0 on a transport error.
	Status int
	Err    error
}

// Target executes one request against the system under load.
// HTTPTarget is the production one; tests substitute fakes.
type Target interface {
	Do(req Request) Outcome
}

// RunOptions shapes one open-loop execution of a schedule.
type RunOptions struct {
	// Clock dispatches the schedule and times each request: cmd/fdaload
	// passes clock.Wall(), tests a clock.Virtual, which fires the whole
	// schedule at once.
	Clock clock.Clock
	// MaxInFlight bounds concurrent outstanding requests (default
	// 4096). The runner stays open-loop — request start times follow
	// the schedule, not the responses — but dispatch blocks when the
	// bound is reached, and every such stall is counted in
	// RunStats.Delayed so saturation is visible rather than silent.
	MaxInFlight int
	// Stop aborts the run early (remaining requests stay unissued).
	Stop <-chan struct{}
	// DurationNS is the schedule's nominal span, used for the offered
	// rate; zero falls back to the last request offset.
	DurationNS int64
}

// KindStats is one request kind's slice of a run report. Latency
// quantiles come from the obs power-of-two-bucket histograms, so each
// is an upper bound at most 2× the true quantile (DESIGN.md §11);
// MeanMs is exact.
type KindStats struct {
	Kind      Kind  `json:"kind"`
	Scheduled int64 `json:"scheduled"`
	Issued    int64 `json:"issued"`
	OK        int64 `json:"ok"`
	// Rejected counts 503 admission-cap responses — shed load, tallied
	// apart from errors because rejection is the server working as
	// configured.
	Rejected int64 `json:"rejected,omitempty"`
	// Conflicts counts 404/409 responses: an open-loop poll racing a
	// job's lifecycle (records before done, cancel after done), an
	// expected background rate, not a failure.
	Conflicts int64 `json:"conflicts,omitempty"`
	// Errors counts everything unexpected: transport failures, 5xx
	// other than 503, and 4xx other than 404/409.
	Errors int64   `json:"errors,omitempty"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// RunStats summarizes one open-loop run.
type RunStats struct {
	DurationSec float64 `json:"duration_sec"`
	OfferedRPS  float64 `json:"offered_rps"`
	// AchievedRPS is completed-OK requests per elapsed second, to be
	// read against OfferedRPS.
	AchievedRPS float64     `json:"achieved_rps"`
	Scheduled   int64       `json:"scheduled"`
	Issued      int64       `json:"issued"`
	OK          int64       `json:"ok"`
	Rejected    int64       `json:"rejected,omitempty"`
	Conflicts   int64       `json:"conflicts,omitempty"`
	Errors      int64       `json:"errors,omitempty"`
	Delayed     int64       `json:"delayed,omitempty"`
	MaxInFlight int64       `json:"max_in_flight"`
	Kinds       []KindStats `json:"kinds"`
}

// kindIndex maps a kind to its fixed position in Kinds() order (-1 if
// unknown), so collectors live in a slice and reports iterate in
// stable order.
func kindIndex(k Kind) int {
	for i, v := range Kinds() {
		if v == k {
			return i
		}
	}
	return -1
}

// kindCollector accumulates one kind's outcomes during a run.
type kindCollector struct {
	scheduled atomic.Int64
	issued    atomic.Int64
	ok        atomic.Int64
	rejected  atomic.Int64
	conflicts atomic.Int64
	errors    atomic.Int64
	lat       *obs.Histogram
}

// Run executes the schedule open-loop against target: each request is
// dispatched at its offset on the injected clock (never gated on a
// prior response), concurrency is bounded by MaxInFlight, and
// client-side latency lands in per-kind obs histograms. Telemetry is
// enabled for the process — the histograms are useless otherwise, and
// training results are telemetry-independent by the PR 7 parity
// contract.
func Run(reqs []Request, target Target, opt RunOptions) RunStats {
	obs.Enable()
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = 4096
	}
	clk := opt.Clock
	reg := obs.NewRegistry()
	collectors := make([]*kindCollector, len(Kinds()))
	for i, k := range Kinds() {
		collectors[i] = &kindCollector{
			lat: reg.Histogram("fdaload_request_seconds",
				"Client-observed request latency by request kind.", obs.Seconds, "kind", string(k)),
		}
	}
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		hiwater  atomic.Int64
		delayed  atomic.Int64
	)
	sem := make(chan struct{}, opt.MaxInFlight)
	start := clk.Now()
	var issuedTotal int64
	for i := range reqs {
		req := reqs[i]
		ki := kindIndex(req.Kind)
		if ki < 0 {
			continue
		}
		c := collectors[ki]
		c.scheduled.Add(1)
		clk.WaitUntil(start+req.Offset, opt.Stop)
		if stopped(opt.Stop) {
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			// The in-flight bound is binding: record the stall, then
			// block for a slot (or the stop signal).
			delayed.Add(1)
			select {
			case sem <- struct{}{}:
			case <-opt.Stop:
			}
		}
		if stopped(opt.Stop) {
			break
		}
		issuedTotal++
		c.issued.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			n := inflight.Add(1)
			for {
				hw := hiwater.Load()
				if n <= hw || hiwater.CompareAndSwap(hw, n) {
					break
				}
			}
			t0 := clk.Now()
			out := target.Do(req)
			c.lat.Observe(clk.Now() - t0)
			inflight.Add(-1)
			switch {
			case out.Err == nil && out.Status >= 200 && out.Status < 300:
				c.ok.Add(1)
			case out.Status == 503:
				c.rejected.Add(1)
			case out.Status == 404 || out.Status == 409:
				c.conflicts.Add(1)
			default:
				c.errors.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := clk.Now() - start

	stats := RunStats{
		DurationSec: float64(elapsed) / 1e9,
		Issued:      issuedTotal,
		Delayed:     delayed.Load(),
		MaxInFlight: hiwater.Load(),
	}
	span := opt.DurationNS
	if span == 0 && len(reqs) > 0 {
		span = reqs[len(reqs)-1].Offset
	}
	for i, k := range Kinds() {
		c := collectors[i]
		if c.scheduled.Load() == 0 {
			continue
		}
		ks := KindStats{
			Kind:      k,
			Scheduled: c.scheduled.Load(),
			Issued:    c.issued.Load(),
			OK:        c.ok.Load(),
			Rejected:  c.rejected.Load(),
			Conflicts: c.conflicts.Load(),
			Errors:    c.errors.Load(),
			P50Ms:     c.lat.Quantile(0.50) * 1e3,
			P95Ms:     c.lat.Quantile(0.95) * 1e3,
			P99Ms:     c.lat.Quantile(0.99) * 1e3,
		}
		if n := c.lat.Count(); n > 0 {
			ks.MeanMs = c.lat.Sum() / float64(n) * 1e3
		}
		stats.Scheduled += ks.Scheduled
		stats.OK += ks.OK
		stats.Rejected += ks.Rejected
		stats.Conflicts += ks.Conflicts
		stats.Errors += ks.Errors
		stats.Kinds = append(stats.Kinds, ks)
	}
	if span > 0 {
		stats.OfferedRPS = float64(stats.Scheduled) / (float64(span) / 1e9)
	}
	if elapsed > 0 {
		stats.AchievedRPS = float64(stats.OK) / (float64(elapsed) / 1e9)
	}
	return stats
}

func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// HTTPTarget is the production Target: it executes requests against
// one fdaserve (or fdagate) base URL, tracking the job ids its
// submissions create so poll kinds have real targets. Several replicas
// are driven through fdagate, which spreads the load and namespaces
// their ids.
type HTTPTarget struct {
	base   string
	client *http.Client

	mu     sync.Mutex
	ids    []string            // submitted job ids, in creation order
	known  map[string]struct{} // the set of ids
	cursor atomic.Uint64
}

// NewHTTPTarget builds the target for one base URL. An empty URL, or a
// comma-separated list, is an error here rather than a failed request
// later.
func NewHTTPTarget(addr string) (*HTTPTarget, error) {
	base := strings.TrimRight(strings.TrimSpace(addr), "/")
	if base == "" {
		return nil, errors.New("workload: no base URL to drive (want http://host:port)")
	}
	if strings.Contains(base, ",") {
		return nil, errors.New("workload: one base URL only; drive several replicas through an fdagate in front of them")
	}
	return &HTTPTarget{
		base:  base,
		known: map[string]struct{}{},
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConns: 1 << 14, MaxIdleConnsPerHost: 1 << 14},
			Timeout:   5 * time.Minute,
		},
	}, nil
}

// pickID returns a submitted job id round-robin, or "" when none is
// known yet (early polls fall back to collection endpoints).
func (t *HTTPTarget) pickID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ids) == 0 {
		return ""
	}
	return t.ids[int(t.cursor.Add(1))%len(t.ids)]
}

func (t *HTTPTarget) addID(id string) {
	if id == "" {
		return
	}
	t.mu.Lock()
	if _, dup := t.known[id]; !dup {
		t.ids = append(t.ids, id)
		t.known[id] = struct{}{}
	}
	t.mu.Unlock()
}

// Do issues req and reports the response status; a submission's
// returned job id is remembered for later polls.
func (t *HTTPTarget) Do(req Request) Outcome {
	method, path := t.resolve(req)
	var body io.Reader
	if method == http.MethodPost && len(req.Body) > 0 {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequest(method, t.base+path, body)
	if err != nil {
		return Outcome{Err: err}
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(hr)
	if err != nil {
		return Outcome{Err: err}
	}
	defer resp.Body.Close()
	if method == http.MethodPost && resp.StatusCode < 300 {
		var v struct {
			ID string `json:"id"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&v) == nil {
			t.addID(v.ID)
		}
	}
	// Drain so the transport can reuse the connection.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<22))
	return Outcome{Status: resp.StatusCode}
}

// resolve maps a request to its method and URL path. Recorded traces
// carry explicit paths; generated schedules resolve poll targets against
// the ids this client has created.
func (t *HTTPTarget) resolve(req Request) (method, path string) {
	if req.Path != "" {
		switch req.Kind {
		case KindTrain, KindSweep:
			return http.MethodPost, req.Path
		case KindCancel:
			return http.MethodDelete, req.Path
		default:
			return http.MethodGet, req.Path
		}
	}
	switch req.Kind {
	case KindTrain:
		return http.MethodPost, "/v1/train"
	case KindSweep:
		return http.MethodPost, "/v1/runs"
	case KindStatus:
		if id := t.pickID(); id != "" {
			return http.MethodGet, "/v1/runs/" + id
		}
		return http.MethodGet, "/v1/runs"
	case KindRecords:
		if id := t.pickID(); id != "" {
			return http.MethodGet, "/v1/runs/" + id + "/records"
		}
		return http.MethodGet, "/v1/store"
	case KindCancel:
		if id := t.pickID(); id != "" {
			return http.MethodDelete, "/v1/runs/" + id
		}
		return http.MethodGet, "/v1/runs"
	default:
		return http.MethodGet, "/v1/store"
	}
}
