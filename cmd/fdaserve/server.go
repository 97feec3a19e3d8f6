package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"

	"repro/internal/buildinfo"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/workload"
)

// retainJobs bounds the finished jobs a server remembers. Past it the
// oldest is evicted and its id answers 404; a resubmission of its spec
// is a new job, which the run registry answers (a local train runs zero
// steps, a sweep zero cells).
const retainJobs = 1024

// server is the experiment service: it accepts run specs over HTTP,
// admits them into its job table, which runs each under its own context
// through the registry's store-aware scheduler, and serves status,
// records, live event streams and the cached-run catalog. Identical
// specs dedupe onto one job and every completed grid cell lands in the
// run registry, so a run can be cancelled mid-flight (DELETE), watched
// live (SSE), and resumed after an interruption at the cost of only the
// work the store does not yet hold.
type server struct {
	store *runstore.Store
	table *jobs.Table
	// clock is the process's one serving clock, shared by the table, the
	// HTTP shell and the trace recorder.
	clock clock.Clock
	// jobs caps a sweep's concurrent cells and a local train job's
	// goroutines (par.Resolve convention); cores come from par's budget.
	jobs int
	// fabricAddr, when non-empty, is the TCP-fabric listen address for
	// distributed train jobs (`fdarun -worker` processes connect here).
	fabricAddr string
	// accessLog, when non-nil, receives one structured line per HTTP
	// request from the HTTP shell.
	accessLog *slog.Logger
	// pprof mounts net/http/pprof under /debug/pprof/ when set.
	pprof bool
	// name is the replica identity (-name) reported on /v1/metrics and
	// /v1/healthz so a gateway operator can tell replicas apart.
	name string
	// recorder, when non-nil, journals workload-relevant requests to a
	// tracev1 file in admission order (fdaserve -record, record.go).
	recorder *workload.TraceWriter
}

// newServer builds the server for replica name over store. The name
// keys the replica's job journal, so replicas sharing one store never
// read each other's jobs as their own; cancelling baseCtx (graceful
// shutdown) cancels every in-flight job.
func newServer(store *runstore.Store, name string, width int, baseCtx context.Context) *server {
	clk := clock.Wall()
	return &server{
		store: store,
		table: jobs.New(store.Dir(), name, retainJobs, clk, simulatedBytes, baseCtx),
		clock: clk,
		jobs:  width,
		name:  name,
	}
}

// routes builds the API surface:
//
//	GET    /healthz                 liveness (bare text)
//	GET    /metrics                 Prometheus text exposition
//	GET    /v1/healthz              liveness (JSON)
//	GET    /v1/metrics              job counts, admission headroom, telemetry snapshot
//	GET    /v1/version              build information
//	POST   /v1/drain                stop admitting new jobs (for gateway rotation)
//	DELETE /v1/drain                resume admitting
//	GET    /v1/experiments          registered runners
//	GET    /v1/store                cached-run manifests
//	GET    /v1/runs                 submitted jobs
//	POST   /v1/runs                 submit a sweep {"experiment","scale","seed"}
//	POST   /v1/train                submit a training session (a dist.JobSpec)
//	GET    /v1/runs/{id}            poll one job
//	DELETE /v1/runs/{id}            cancel one job (it becomes resumable)
//	GET    /v1/runs/{id}/events     live progress as Server-Sent Events
//	GET    /v1/runs/{id}/records    fetch a finished job's records
//	GET    /v1/runs/{id}/output     fetch the rendered tables/plots
//
// With -pprof, net/http/pprof is additionally mounted under
// /debug/pprof/. Every route runs behind the shared HTTP shell
// (cluster.HTTPShell): per-route latency histograms, status counters,
// access log.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	shell := cluster.NewHTTPShell("fdaserve", s.clock, s.accessLog)
	shell.MountProbes(mux, map[string]string{"version": buildinfo.String("fdaserve")}, s.table.SampleGauges)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("DELETE /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/store", s.handleStore)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("POST /v1/train", s.handleTrain)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/records", s.handleRecords)
	mux.HandleFunc("GET /v1/runs/{id}/output", s.handleOutput)
	return shell.Instrument(s.record(mux))
}

// handleHealthz implements GET /v1/healthz: a JSON liveness probe (the
// bare-text /healthz is kept for load balancers that predate the v1
// surface).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.table.Admission().Draining {
		status = "draining"
	}
	cluster.WriteJSON(w, http.StatusOK, map[string]string{
		"status":  status,
		"replica": s.name,
		"version": buildinfo.String("fdaserve"),
	})
}

// metricsView is the GET /v1/metrics payload.
type metricsView struct {
	// Replica is the -name identity; the gateway's load tracker adopts
	// it as the replica's display name.
	Replica   string  `json:"replica,omitempty"`
	UptimeSec float64 `json:"uptime_sec"`
	// Tally is the job table's read: the jobs and admission objects and
	// the bytes_simulated, snapshot_hits and steps_saved totals.
	jobs.Tally
	// StoreRuns counts the cached run manifests in the registry (sweep
	// cells and finished local trains); StoreSnapshots the snapshots
	// beside them (trajectory prefixes and train resume state).
	StoreRuns      int `json:"store_runs"`
	StoreSnapshots int `json:"store_snapshots"`
	// Telemetry is the process-wide metrics registry snapshot — session
	// step/sync timings, fabric byte counters, runstore latencies, HTTP
	// and job histograms with p50/p95/p99 — the JSON twin of GET /metrics.
	Telemetry obs.Snap `json:"telemetry"`
	// Runtime carries a fixed set of runtime/metrics samples (goroutines,
	// heap, GC cycles, mutex wait).
	Runtime map[string]float64 `json:"runtime"`
}

// handleMetrics implements GET /v1/metrics: job counts by status,
// admission state, simulated communication volume, uptime, and the
// registry snapshot.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.table.SampleGauges()
	cluster.WriteJSON(w, http.StatusOK, metricsView{
		Replica:        s.name,
		UptimeSec:      float64(s.table.Now()) / 1e9,
		Tally:          s.table.Tally(),
		StoreRuns:      s.store.Count(),
		StoreSnapshots: s.store.SnapshotCount(),
		Telemetry:      obs.Default.Snapshot(),
		Runtime:        obs.RuntimeSample(),
	})
}

func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name     string `json:"name"`
		Artifact string `json:"artifact"`
	}
	var out []entry
	for _, r := range experiments.Runners() {
		out = append(out, entry{r.Name, r.Artifact})
	}
	cluster.WriteJSON(w, http.StatusOK, out)
}

func (s *server) handleStore(w http.ResponseWriter, r *http.Request) {
	ms, err := s.store.List()
	if err != nil {
		cluster.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if ms == nil {
		ms = []runstore.Manifest{}
	}
	cluster.WriteJSON(w, http.StatusOK, ms)
}

func (s *server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	cluster.WriteJSON(w, http.StatusOK, s.table.List())
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody(w, r, cluster.ParseSweepSpec)
	if !ok {
		return
	}
	scale, _ := experiments.ParseScale(req.Scale) // ParseSweepSpec admitted it
	j, existing, err := s.table.Submit(req.Key(), func(j *jobs.Job) {
		j.Kind, j.Experiment, j.Scale, j.Seed = "sweep", req.Experiment, req.Scale, req.Seed
		j.Stats = &jobs.SweepStats{}
	}, func(ctx context.Context, j *jobs.Job) (any, error) { return s.sweep(ctx, j, scale) })
	s.writeSubmitted(w, j, existing, err)
}

// decodeBody reads a submission body under the serving tier's size limit
// (cluster.ReadBody) and parses it with parse, the parser fdagate routes
// by. A body parse refuses is a 400 carrying its error, with the
// structured field errors where there are any, so a bad spec is turned
// away at the door instead of surfacing later as a failed job. It
// reports whether the spec was parsed; on false the response is written.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, parse func([]byte) (T, error)) (T, bool) {
	var spec T
	body, ok := cluster.ReadBody(w, r)
	if !ok {
		return spec, false
	}
	spec, err := parse(body)
	if err == nil {
		return spec, true
	}
	var cerr *core.ConfigError
	if errors.As(err, &cerr) {
		cluster.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error(), "fields": cerr.Fields})
	} else {
		cluster.WriteError(w, http.StatusBadRequest, err.Error())
	}
	return spec, false
}

// writeSubmitted answers a submission: 202 with the new job's view, 200
// with the holder's on a dedupe hit, or a 503 when the table refused it
// — a structured JSON body naming the reason, plus a Retry-After hint
// derived from measured job durations, so well-behaved clients (and
// fdaload, which counts rejections as shed load rather than errors)
// back off proportionally instead of hammering.
func (s *server) writeSubmitted(w http.ResponseWriter, j *jobs.Job, existing bool, err error) {
	switch {
	case err == nil && existing:
		cluster.WriteJSON(w, http.StatusOK, j.View())
	case err == nil:
		cluster.WriteJSON(w, http.StatusAccepted, j.View())
	default:
		a, retry := s.table.Admission(), s.table.RetryAfter()
		msg := fmt.Sprintf("server at capacity: %d jobs in flight (max %d); retry later", a.InFlight, a.MaxQueue)
		if errors.Is(err, jobs.ErrDraining) {
			msg = "server draining: not accepting new jobs"
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		cluster.WriteJSON(w, http.StatusServiceUnavailable, struct {
			Error string `json:"error"`
			jobs.Admission
			RetryAfterSec int `json:"retry_after_sec"`
		}{msg, a, retry})
	}
}

// handleDrain implements POST /v1/drain (stop admitting, keep serving
// reads and in-flight jobs) and DELETE /v1/drain (re-admit). Draining
// is how an operator or orchestrator takes a replica out of a fdagate
// rotation without killing in-flight work: the gateway's poller sees
// admission.draining and routes new submissions elsewhere.
func (s *server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.table.SetDraining(r.Method == http.MethodPost)
	a := s.table.Admission()
	cluster.WriteJSON(w, http.StatusOK, map[string]any{
		"draining":  a.Draining,
		"in_flight": a.InFlight,
	})
}

// sweep runs a figure sweep under ctx; the store-aware scheduler inside
// the runner serves every already-cached cell from disk, and
// cancellation (DELETE or shutdown) stops it between cells, so the
// persisted cells fund the next submission of the same spec.
func (s *server) sweep(ctx context.Context, j *jobs.Job, scale experiments.Scale) (any, error) {
	return experiments.Run(j.Experiment, experiments.Options{
		Scale: scale,
		Seed:  j.Seed,
		Out:   &j.Out,
		Jobs:  s.jobs,
		Store: s.store,
		Stats: (*experiments.SweepStats)(j.Stats),
		Warm:  true,
		Ctx:   ctx,
		Events: func(ce experiments.CellEvent) {
			j.Publish("cell", map[string]any{
				"index":  ce.Index,
				"total":  ce.Total,
				"cached": ce.Cached,
				"model":  ce.Spec.Model,
				"k":      ce.Spec.K,
				"theta":  ce.Spec.Theta,
			})
		},
	})
}

// job resolves the {id} path value, answering 404 for an id the table
// does not hold (never admitted, or evicted).
func (s *server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, ok := s.table.Get(r.PathValue("id"))
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "no such run")
	}
	return j, ok
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		cluster.WriteJSON(w, http.StatusOK, j.View())
	}
}

// handleCancel implements DELETE /v1/runs/{id}: the job's context is
// cancelled, the handler waits for the run goroutine to wind down
// (sweeps stop between cells, training sessions between steps — storing
// a resume snapshot), and the final view (status "cancelled") is
// returned. Cancelling a finished job is a no-op conflict.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if st, _ := j.Result(); st != jobs.Running {
		cluster.WriteError(w, http.StatusConflict, "run already "+st)
		return
	}
	j.Cancel()
	select {
	case <-j.Done():
	case <-r.Context().Done():
		cluster.WriteError(w, http.StatusRequestTimeout, "cancellation requested; run still draining")
		return
	}
	cluster.WriteJSON(w, http.StatusOK, j.View())
}

// handleEvents implements GET /v1/runs/{id}/events as Server-Sent
// Events: an initial "status" event, then the job's live progress
// ("cell" for sweep cells; "step", "sync", "eval" for training
// sessions), a terminal "status" event, and EOF. Events are a live
// feed, not a replay log: progress emitted before the subscription is
// summarized by the initial status snapshot, and a slow consumer may
// have intermediate events dropped rather than stall the run.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		cluster.WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	// Subscribe before the snapshot so no event between the two is lost;
	// a terminal job has no stream, only its two status events.
	ch, unsub := j.Subscribe()
	defer unsub()
	writeSSE(w, "status", j.View())
	fl.Flush()
	for ch != nil {
		select {
		case <-r.Context().Done():
			return
		case msg, ok := <-ch:
			if !ok {
				ch = nil // the run finished
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", msg.Name, msg.Data)
			fl.Flush()
		}
	}
	writeSSE(w, "status", j.View())
	fl.Flush()
}

func (s *server) handleRecords(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	switch status, result := j.Result(); status {
	case jobs.Running:
		cluster.WriteError(w, http.StatusConflict, "run still executing; poll /v1/runs/"+j.ID)
	case jobs.Done:
		cluster.WriteJSON(w, http.StatusOK, map[string]any{"id": j.ID, "records": result})
	default:
		cluster.WriteError(w, http.StatusConflict, "run "+status+"; see /v1/runs/"+j.ID)
	}
}

func (s *server) handleOutput(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, j.Out.String())
	}
}

// writeSSE emits one Server-Sent Event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// simulatedBytes is the table's byte accounting: the communication a
// finished job's result simulated. Sweep records with nested accuracy
// targets share one training trajectory whose byte counts are
// cumulative, so each grid cell contributes its maximum CommGB once
// rather than the sum over targets. Unknown result shapes contribute
// nothing.
func simulatedBytes(result any) int64 {
	maxPerCell := map[string]float64{}
	cell := func(key string, gb float64) { maxPerCell[key] = max(maxPerCell[key], gb) }
	switch r := result.(type) {
	case core.Result:
		return r.CommBytes
	case []experiments.Record:
		for _, rec := range r {
			cell(fmt.Sprintf("%s|%s|%s|%s|%d|%g", rec.Figure, rec.Model, rec.Het, rec.Strategy, rec.K, rec.Theta), rec.CommGB)
		}
	case []experiments.NetRecord:
		for _, rec := range r {
			cell(fmt.Sprintf("%s|%s|%s|%d|%g", rec.Scenario, rec.Model, rec.Strategy, rec.K, rec.Theta), rec.CommGB)
		}
	default:
		return 0
	}
	// Sum in sorted key order: float addition is not associative, and the
	// aggregate feeds a metrics endpoint that should be byte-stable across
	// restarts of the same job history.
	var gb float64
	for _, k := range slices.Sorted(maps.Keys(maxPerCell)) {
		gb += maxPerCell[k]
	}
	return int64(gb * 1e9)
}
