package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// Gateway is the fdagate HTTP front-end: it proxies the full fdaserve
// v1 API across the pool's replicas. Job ids are namespaced with the
// owning replica's prefix ("<prefix>-r3"), so id-scoped requests route
// statelessly — the gateway keeps no job table and survives restarts
// without losing track of anything.
//
// Overload degrades explicitly, never by timeout: a submission that
// finds no available replica, or that exhausts its candidates on 503s,
// is answered 503 with a Retry-After derived from the pool's windows;
// the bounded admission gate in front caps how many proxied
// submissions may be outstanding at once.
type Gateway struct {
	pool *Pool
	// client executes proxied requests; it must NOT carry a global
	// timeout (the SSE proxy streams indefinitely) — per-attempt
	// deadlines come from the incoming request context.
	client  *http.Client
	version string
	// pending is the bounded admission gate for proxied submissions.
	pending chan struct{}

	mSubmit   *obs.Counter // routed via the affinity owner
	mFallback *obs.Counter // routed via the least-loaded fallback
	mRetries  *obs.Counter
	mRejGate  *obs.Counter // rejected at the gateway admission gate
	mRejDown  *obs.Counter // rejected: no available replica
	mRejUp    *obs.Counter // rejected: every candidate answered 503
}

// GatewayOptions configures a Gateway.
type GatewayOptions struct {
	// Client executes proxied requests. It must not set a global
	// timeout (SSE streams through it); defaults to a fresh
	// http.Client with a large connection pool.
	Client *http.Client
	// MaxPending bounds concurrently proxied submissions; beyond it new
	// submissions are answered 503 immediately. Default 1024.
	MaxPending int
	// Version is reported by GET /v1/version.
	Version string
}

// NewGateway builds the gateway over a pool.
func NewGateway(pool *Pool, opt GatewayOptions) *Gateway {
	if opt.Client == nil {
		opt.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1 << 12,
			MaxIdleConnsPerHost: 1 << 12,
		}}
	}
	if opt.MaxPending <= 0 {
		opt.MaxPending = 1024
	}
	if opt.Version == "" {
		opt.Version = "fdagate"
	}
	return &Gateway{
		pool:    pool,
		client:  opt.Client,
		version: opt.Version,
		pending: make(chan struct{}, opt.MaxPending),
		mSubmit: obs.Default.Counter("fdagate_submissions_total",
			"Submissions routed to their cache-affinity owner.", "route", "affinity"),
		mFallback: obs.Default.Counter("fdagate_submissions_total",
			"Submissions routed by least-loaded fallback.", "route", "fallback"),
		mRetries: obs.Default.Counter("fdagate_proxy_retries_total",
			"Submission attempts retried on another replica after a failure or 503."),
		mRejGate: obs.Default.Counter("fdagate_rejected_total",
			"Submissions rejected by the gateway admission gate.", "reason", "gateway_full"),
		mRejDown: obs.Default.Counter("fdagate_rejected_total",
			"Submissions rejected because no replica was available.", "reason", "no_replica"),
		mRejUp: obs.Default.Counter("fdagate_rejected_total",
			"Submissions rejected after every candidate replica answered 503.", "reason", "upstream_full"),
	}
}

// Handler builds the gateway's route table. Every fdaserve v1 endpoint
// is covered; /metrics and /v1/cluster are gateway-local.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	shell := NewHTTPShell("fdagate", g.pool.clock, nil)
	shell.MountProbes(mux, map[string]string{"version": g.version, "role": "gateway"}, nil)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.HandleFunc("GET /v1/cluster", g.handleCluster)
	mux.HandleFunc("GET /v1/metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", g.proxyAny)
	mux.HandleFunc("GET /v1/store", g.proxyAny)
	mux.HandleFunc("GET /v1/runs", g.handleListRuns)
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) { g.handleSubmit(w, r, "sweep") })
	mux.HandleFunc("POST /v1/train", func(w http.ResponseWriter, r *http.Request) { g.handleSubmit(w, r, "train") })
	mux.HandleFunc("GET /v1/runs/{id}", g.handleByID)
	mux.HandleFunc("DELETE /v1/runs/{id}", g.handleByID)
	mux.HandleFunc("GET /v1/runs/{id}/events", g.handleByID)
	mux.HandleFunc("GET /v1/runs/{id}/records", g.handleByID)
	mux.HandleFunc("GET /v1/runs/{id}/output", g.handleByID)
	return shell.Instrument(mux)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	views := g.pool.Views()
	up := 0
	for _, v := range views {
		if v.Healthy && !v.Draining {
			up++
		}
	}
	status := "ok"
	if up == 0 {
		status = "degraded"
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"role":     "gateway",
		"version":  g.version,
		"replicas": len(views),
		"up":       up,
	})
}

func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"replicas":    g.pool.Views(),
		"max_pending": cap(g.pending),
		"pending":     len(g.pending),
	})
}

// clusterMetrics is the GET /v1/metrics aggregate: replica job counts
// summed across the pool plus the gateway's own telemetry snapshot.
type clusterMetrics struct {
	Jobs      jobs.Counts        `json:"jobs"`
	Replicas  []View             `json:"replicas"`
	Telemetry obs.Snap           `json:"telemetry"`
	Runtime   map[string]float64 `json:"runtime"`
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m clusterMetrics
	replicas := g.pool.Replicas()
	views := make([]replicaMetrics, len(replicas))
	var wg sync.WaitGroup
	for i, rep := range replicas {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rep.Base+"/v1/metrics", nil)
			if err != nil {
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			_ = json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&views[i])
		}(i, rep)
	}
	wg.Wait()
	for _, v := range views {
		m.Jobs.Add(v.Jobs)
	}
	m.Replicas = g.pool.Views()
	m.Telemetry = obs.Default.Snapshot()
	m.Runtime = obs.RuntimeSample()
	WriteJSON(w, http.StatusOK, m)
}

// handleSubmit routes a submission: content-address the body, walk the
// candidate replicas (affinity owner first, then least-loaded), retry
// transport failures and 503s on the next candidate, and namespace the
// created job's id with the serving replica's prefix.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request, kind string) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	select {
	case g.pending <- struct{}{}:
		defer func() { <-g.pending }()
	default:
		g.mRejGate.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(g.pool.RetryAfterSec()))
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":       fmt.Sprintf("gateway at capacity: %d submissions pending (max %d); retry later", cap(g.pending), cap(g.pending)),
			"max_pending": cap(g.pending),
		})
		return
	}

	address, hasAffinity := AffinityAddress(kind, body)
	candidates := g.pool.Candidates(address)
	if len(candidates) == 0 {
		g.mRejDown.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(g.pool.RetryAfterSec()))
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "no replica available; retry later",
		})
		return
	}

	upstreamFull := false
	for i, rep := range candidates {
		if i > 0 {
			g.mRetries.Inc()
		}
		resp, rbody, err := g.forward(r, rep, r.URL.Path, body)
		if err != nil {
			g.pool.OnTransportError(rep, err)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			g.pool.OnOverload(rep, retryAfterOf(resp))
			upstreamFull = true
			continue
		}
		g.pool.OnSuccess(rep)
		if hasAffinity && i == 0 {
			g.mSubmit.Inc()
		} else {
			g.mFallback.Inc()
		}
		g.respond(w, resp, rewriteID(rbody, rep.prefix), rep)
		return
	}
	if upstreamFull {
		g.mRejUp.Inc()
	} else {
		g.mRejDown.Inc()
	}
	w.Header().Set("Retry-After", strconv.Itoa(g.pool.RetryAfterSec()))
	WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error": "cluster at capacity: every candidate replica refused the submission; retry later",
	})
}

// handleByID routes an id-scoped request ("<prefix>-<id>") to the
// owning replica. The events endpoint streams; everything else buffers
// and rewrites the id.
func (g *Gateway) handleByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, upstream, ok := g.pool.SplitID(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "no such run (unknown replica prefix in id "+strconv.Quote(id)+")")
		return
	}
	suffix := ""
	if i := strings.Index(r.URL.Path, id); i >= 0 {
		suffix = r.URL.Path[i+len(id):]
	}
	path := "/v1/runs/" + upstream + suffix

	if strings.HasSuffix(suffix, "/events") {
		g.stream(w, r, rep, path)
		return
	}
	resp, rbody, err := g.forward(r, rep, path, nil)
	if err != nil {
		g.pool.OnTransportError(rep, err)
		w.Header().Set("Retry-After", strconv.Itoa(g.pool.RetryAfterSec()))
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": fmt.Sprintf("replica %s unreachable; retry later", rep.Name()),
		})
		return
	}
	g.pool.OnSuccess(rep)
	if strings.Contains(resp.Header.Get("Content-Type"), "application/json") {
		rbody = rewriteID(rbody, rep.prefix)
	}
	g.respond(w, resp, rbody, rep)
}

// handleListRuns merges every replica's run listing, ids namespaced.
// Unreachable replicas contribute nothing (their jobs reappear when
// they rejoin); the X-Fdagate-Partial header names them so a consumer
// can tell a complete listing from a degraded one.
func (g *Gateway) handleListRuns(w http.ResponseWriter, r *http.Request) {
	replicas := g.pool.Replicas()
	lists := make([][]map[string]json.RawMessage, len(replicas))
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, rep := range replicas {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			resp, rbody, err := g.forward(r, rep, "/v1/runs", nil)
			if err != nil {
				g.pool.OnTransportError(rep, err)
				errs[i] = err
				return
			}
			g.pool.OnSuccess(rep)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var views []map[string]json.RawMessage
			if err := json.Unmarshal(rbody, &views); err != nil {
				errs[i] = err
				return
			}
			for _, v := range views {
				rewriteIDField(v, rep.prefix)
			}
			lists[i] = views
		}(i, rep)
	}
	wg.Wait()
	merged := []map[string]json.RawMessage{}
	var partial []string
	for i := range replicas {
		if errs[i] != nil {
			partial = append(partial, replicas[i].Name())
			continue
		}
		merged = append(merged, lists[i]...)
	}
	if len(partial) > 0 {
		w.Header().Set("X-Fdagate-Partial", strings.Join(partial, ","))
	}
	WriteJSON(w, http.StatusOK, merged)
}

// proxyAny serves a replica-agnostic read (store catalog, experiment
// index — both identical across replicas sharing the store) from the
// least-loaded available replica, falling through the candidate order
// on failure.
func (g *Gateway) proxyAny(w http.ResponseWriter, r *http.Request) {
	candidates := g.pool.Candidates("")
	if len(candidates) == 0 {
		// Every replica is quarantined or draining: reads are harmless,
		// so fall back to trying the full set rather than refusing.
		candidates = g.pool.Replicas()
	}
	for _, rep := range candidates {
		resp, rbody, err := g.forward(r, rep, r.URL.Path, nil)
		if err != nil {
			g.pool.OnTransportError(rep, err)
			continue
		}
		g.pool.OnSuccess(rep)
		g.respond(w, resp, rbody, rep)
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(g.pool.RetryAfterSec()))
	WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error": "no replica reachable; retry later",
	})
}

// forward proxies one buffered exchange to a replica: same method,
// given path, optional body. The response body is fully read (capped)
// and the response returned with its status and headers intact.
func (g *Gateway) forward(r *http.Request, rep *Replica, path string, body []byte) (*http.Response, []byte, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, rep.Base+path, reader)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rep.dispatched.Add(1)
	defer rep.dispatched.Add(-1)
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	rbody, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, nil, err
	}
	return resp, rbody, nil
}

// stream proxies a streaming endpoint (SSE events): headers through,
// every chunk flushed as it arrives. Event payload ids are
// replica-local; the X-Fdagate-Replica header names the origin.
func (g *Gateway) stream(w http.ResponseWriter, r *http.Request, rep *Replica, path string) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, rep.Base+path, nil)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rep.dispatched.Add(1)
	defer rep.dispatched.Add(-1)
	resp, err := g.client.Do(req)
	if err != nil {
		g.pool.OnTransportError(rep, err)
		w.Header().Set("Retry-After", strconv.Itoa(g.pool.RetryAfterSec()))
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": fmt.Sprintf("replica %s unreachable; retry later", rep.Name()),
		})
		return
	}
	defer resp.Body.Close()
	g.pool.OnSuccess(rep)
	copyProxyHeaders(w, resp, rep)
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// respond relays a buffered upstream response.
func (g *Gateway) respond(w http.ResponseWriter, resp *http.Response, body []byte, rep *Replica) {
	copyProxyHeaders(w, resp, rep)
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

func copyProxyHeaders(w http.ResponseWriter, resp *http.Response, rep *Replica) {
	for _, k := range []string{"Content-Type", "Cache-Control", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("X-Fdagate-Replica", rep.prefix)
}

// rewriteID namespaces the "id" field of a JSON object body with the
// replica prefix. Field values are preserved byte-for-byte (raw
// messages, re-encoded without HTML escaping as WriteJSON wrote them),
// so job records pass through the gateway bit-identical to a direct
// fetch — only the id and the (deterministically sorted) top-level key
// order change. Non-object or id-less bodies pass through untouched.
func rewriteID(body []byte, prefix string) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil || !rewriteIDField(m, prefix) {
		return body
	}
	var out bytes.Buffer
	if err := encodeJSON(&out, m); err != nil {
		return body
	}
	return out.Bytes()
}

// rewriteIDField namespaces m["id"] in place; reports whether the
// field was a string id.
func rewriteIDField(m map[string]json.RawMessage, prefix string) bool {
	raw, ok := m["id"]
	if !ok {
		return false
	}
	var id string
	if err := json.Unmarshal(raw, &id); err != nil || id == "" {
		return false
	}
	q, err := json.Marshal(prefix + "-" + id)
	if err != nil {
		return false
	}
	m["id"] = q
	return true
}

func retryAfterOf(resp *http.Response) int {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return 1
}
