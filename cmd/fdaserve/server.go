package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/workload"
)

// server is the experiment service: it accepts run specs over HTTP,
// executes them through the registry's store-aware scheduler, and
// serves status, records, live event streams and the cached-run
// catalog. Identical specs dedupe onto one job, every completed grid
// cell lands in the run registry, and every job runs under its own
// context — so a run can be cancelled mid-flight (DELETE), watched live
// (SSE), and resumed after an interruption at the cost of only the work
// the store does not yet hold.
type server struct {
	store *runstore.Store
	// jobs caps a sweep's concurrent cells and a local train job's
	// goroutines (par.Resolve convention); cores come from par's budget.
	jobs int
	// fabricAddr, when non-empty, is the TCP-fabric listen address for
	// distributed train jobs (`fdarun -worker` processes connect here).
	fabricAddr string
	// baseCtx parents every job context; cancelling it (graceful
	// shutdown) cancels all in-flight runs.
	baseCtx context.Context
	// journal records job status transitions in the store directory.
	journal *journal
	// warm enables trajectory-prefix snapshot reuse inside sweep jobs.
	warm bool
	// accessLog, when non-nil, receives one structured line per HTTP
	// request from the HTTP shell.
	accessLog *slog.Logger
	// pprof mounts net/http/pprof under /debug/pprof/ when set.
	pprof bool
	// name is the replica identity (-name) reported on /v1/metrics and
	// /v1/healthz so a gateway operator can tell replicas apart.
	name string
	// maxQueue caps in-flight (admitted, not yet terminal) jobs; above
	// it new submissions are rejected with 503 + Retry-After instead of
	// queuing unboundedly. 0 disables the cap.
	maxQueue int
	// draining, when set (POST /v1/drain), refuses new submissions with
	// 503 while in-flight jobs run to completion — the graceful way to
	// take a replica out of a gateway rotation. DELETE /v1/drain
	// re-admits.
	draining atomic.Bool
	// active counts in-flight jobs for the admission cap. Incremented
	// under s.mu at creation; decremented lock-free at the terminal
	// transition, so admission may briefly over-refuse but never
	// over-admits.
	active atomic.Int64
	// recorder, when non-nil, journals workload-relevant requests to a
	// tracev1 file in admission order (fdaserve -record, record.go).
	recorder *workload.TraceWriter
	// wg tracks in-flight job goroutines for shutdown draining.
	wg sync.WaitGroup
	// started anchors the /v1/metrics uptime.
	started time.Time
	// bytesSimulated sums the communication accounting of every finished
	// job (training Results and sweep records).
	bytesSimulated atomic.Int64

	mu     sync.Mutex
	byID   map[string]*job
	byKey  map[string]*job
	order  []string
	nextID int
}

// newServer builds the server for replica name over store. The name
// keys the replica's job journal, so replicas sharing one store never
// read each other's jobs as their own.
func newServer(store *runstore.Store, name string, jobs int, baseCtx context.Context) *server {
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	return &server{
		store:   store,
		name:    name,
		jobs:    jobs,
		baseCtx: baseCtx,
		journal: &journal{path: filepath.Join(store.Dir(), journalFile(name))},
		started: time.Now(),
		byID:    map[string]*job{},
		byKey:   map[string]*job{},
	}
}

// drain waits for every in-flight job to finish (used after the base
// context is cancelled).
func (s *server) drain() { s.wg.Wait() }

// Job status values. Transitions: running → done | failed | cancelled.
// "interrupted" is assigned only at startup, to journaled jobs a
// previous server process left mid-run; like failed and cancelled it
// gives way to a resubmission of the same spec, which resumes from the
// run registry (sweep cells, a train's result or its resume snapshot).
const (
	statusRunning     = "running"
	statusDone        = "done"
	statusFailed      = "failed"
	statusCancelled   = "cancelled"
	statusInterrupted = "interrupted"
)

// job is one submitted run: a figure sweep or a single training session.
type job struct {
	ID         string
	Kind       string // "sweep" or "train"
	Experiment string // sweep: experiment name; train: model name
	Scale      string
	Seed       uint64
	key        string

	stats  *experiments.SweepStats
	out    *lockedBuffer
	done   chan struct{}
	cancel context.CancelFunc
	events *broker

	// Train-job live counters (atomics so status polls don't contend
	// with the stepping goroutine).
	steps   atomic.Int64
	syncs   atomic.Int64
	resumed atomic.Bool

	// admittedNs/startedNs are monotonic offsets from server start:
	// admittedNs is stamped at creation, startedNs when an execute
	// goroutine picks the job up (0 = still queued). Their difference
	// feeds fdaserve_job_queue_wait_seconds and makes the /v1/metrics
	// queued count truthful instead of hardwired to zero.
	admittedNs int64
	startedNs  atomic.Int64

	mu     sync.Mutex
	status string
	errMsg string
	result any
	// fabricAddr is the coordinator address of a distributed train job,
	// set once its listener is bound (workers connect here).
	fabricAddr string
}

// jobView is the status representation shared by every endpoint.
type jobView struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	Experiment string `json:"experiment"`
	Scale      string `json:"scale,omitempty"`
	Seed       uint64 `json:"seed"`
	Status     string `json:"status"`
	Error      string `json:"error,omitempty"`
	// Cells/Cached/Executed track grid progress live while a sweep runs.
	Cells    int64 `json:"cells,omitempty"`
	Cached   int64 `json:"cached,omitempty"`
	Executed int64 `json:"executed,omitempty"`
	// SnapshotHits/StepsSaved count a sweep's warm starts: cells that
	// restored a trajectory-prefix snapshot, and the training steps those
	// restores skipped.
	SnapshotHits int64 `json:"snapshot_hits,omitempty"`
	StepsSaved   int64 `json:"steps_saved,omitempty"`
	// Steps/Syncs track a training session live; Resumed reports that it
	// continued from a checkpoint of an earlier interrupted submission.
	Steps   int64 `json:"steps,omitempty"`
	Syncs   int64 `json:"syncs,omitempty"`
	Resumed bool  `json:"resumed,omitempty"`
	// FabricAddr is the coordinator address of a distributed train job —
	// the endpoint `fdarun -worker -connect` processes join.
	FabricAddr string `json:"fabric_addr,omitempty"`
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID: j.ID, Kind: j.Kind, Experiment: j.Experiment, Scale: j.Scale, Seed: j.Seed,
		Status: j.status, Error: j.errMsg, FabricAddr: j.fabricAddr,
	}
	if j.stats != nil {
		v.Cells = j.stats.Cells.Load()
		v.Cached = j.stats.Cached.Load()
		v.Executed = j.stats.Executed.Load()
		v.SnapshotHits = j.stats.SnapshotHits.Load()
		v.StepsSaved = j.stats.StepsSaved.Load()
	}
	if j.Kind == "train" {
		v.Steps = j.steps.Load()
		v.Syncs = j.syncs.Load()
		v.Resumed = j.resumed.Load()
	}
	return v
}

// now is the server's monotonic clock: nanoseconds since it started.
func (s *server) now() int64 { return int64(time.Since(s.started)) }

// runJob is the life of every job goroutine, sweep or train: it stamps
// the start (feeding the admission→start interval to the queue-wait
// histogram), runs body under the job's context, maps its outcome — a
// result, a cancellation, an error or a panic — to the one terminal
// status, and releases everything waiting on the job. The caller has
// already done s.wg.Add(1).
func (s *server) runJob(ctx context.Context, j *job, body func(context.Context) (any, error)) {
	now := s.now()
	j.startedNs.Store(now)
	jobQueueWait.Observe(now - j.admittedNs)
	defer s.wg.Done()
	defer j.events.close()
	defer close(j.done)
	defer func() {
		if r := recover(); r != nil {
			s.setStatus(j, statusFailed, fmt.Sprintf("panic: %v", r), nil)
		}
	}()
	res, err := body(ctx)
	switch {
	case err == nil:
		s.setStatus(j, statusDone, "", res)
	case cancelled(err):
		s.setStatus(j, statusCancelled, err.Error(), nil)
	default:
		s.setStatus(j, statusFailed, err.Error(), nil)
	}
}

// cancelled reports whether err is a job context ending (DELETE,
// shutdown or deadline) rather than a failure of the work itself.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// setStatus records a terminal transition and journals it.
func (s *server) setStatus(j *job, status, errMsg string, result any) {
	j.mu.Lock()
	j.status, j.errMsg = status, errMsg
	if result != nil {
		j.result = result
	}
	j.mu.Unlock()
	if status == statusDone && result != nil {
		s.bytesSimulated.Add(simulatedBytes(result))
	}
	if status != statusRunning {
		// Terminal transition: the job leaves the admission-cap window.
		// setStatus runs exactly once per executed job (runJob ends in a
		// single switch arm, or in its panic handler).
		s.active.Add(-1)
	}
	if st := j.startedNs.Load(); status != statusRunning && st != 0 {
		jobRunSeconds(j.Kind).Observe(s.now() - st)
	}
	s.journal.record(j.view(), j.key)
}

// simulatedBytes extracts the communication accounting of a finished
// job's result for the /v1/metrics aggregate. Sweep records with
// nested accuracy targets share one training trajectory whose byte
// counts are cumulative, so each grid cell contributes its maximum
// CommGB once rather than the sum over targets. Unknown record shapes
// contribute nothing.
func simulatedBytes(result any) int64 {
	maxPerCell := map[string]float64{}
	cell := func(key string, gb float64) {
		if gb > maxPerCell[key] {
			maxPerCell[key] = gb
		}
	}
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
	keys := make([]string, 0, len(maxPerCell))
	for k := range maxPerCell {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var gb float64
	for _, k := range keys {
		gb += maxPerCell[k]
	}
	return int64(gb * 1e9)
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
	shell := cluster.NewHTTPShell("fdaserve", s.now, s.accessLog)
	shell.MountProbes(mux, map[string]string{"version": buildinfo.String("fdaserve")}, s.sampleAdmissionGauges)
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
	if s.draining.Load() {
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
	Jobs      struct {
		Queued    int `json:"queued"`
		Running   int `json:"running"`
		Done      int `json:"done"`
		Failed    int `json:"failed"`
		Cancelled int `json:"cancelled"`
		// Interrupted counts journaled jobs a previous server process
		// left mid-run (resurrected at startup).
		Interrupted int `json:"interrupted"`
		Total       int `json:"total"`
	} `json:"jobs"`
	// Admission is the -max-queue cap's live state — the headroom
	// signal fdagate's least-loaded router polls.
	Admission struct {
		InFlight int64 `json:"in_flight"`
		MaxQueue int64 `json:"max_queue"`
		Draining bool  `json:"draining"`
	} `json:"admission"`
	// BytesSimulated totals the communication accounting of every job
	// finished since the server started (training results and sweep
	// records).
	BytesSimulated int64 `json:"bytes_simulated"`
	// StoreRuns counts the cached run manifests in the registry (sweep
	// cells and finished local trains); StoreSnapshots the snapshots
	// beside them (trajectory prefixes and train resume state).
	StoreRuns      int `json:"store_runs"`
	StoreSnapshots int `json:"store_snapshots"`
	// SnapshotHits/StepsSaved total the warm-start reuse across every
	// sweep job: cells restored from a prefix snapshot and the training
	// steps those restores skipped.
	SnapshotHits int64 `json:"snapshot_hits"`
	StepsSaved   int64 `json:"steps_saved"`
	// Telemetry is the process-wide metrics registry snapshot — session
	// step/sync timings, fabric byte counters, runstore latencies, HTTP
	// and job histograms with p50/p95/p99 — the JSON twin of GET /metrics.
	Telemetry obs.Snap `json:"telemetry"`
	// Runtime carries a fixed set of runtime/metrics samples (goroutines,
	// heap, GC cycles, mutex wait).
	Runtime map[string]float64 `json:"runtime"`
}

// handleMetrics implements GET /v1/metrics: job counts by status,
// simulated communication volume, uptime, and the registry snapshot.
// Queued counts jobs admitted whose execute goroutine has not started
// yet — under the in-process executor that window is one goroutine
// handoff wide, so the count is usually zero but no longer hardwired.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m metricsView
	m.UptimeSec = time.Since(s.started).Seconds()
	s.mu.Lock()
	for _, j := range s.byID {
		v := j.view()
		switch v.Status {
		case statusRunning:
			if j.startedNs.Load() == 0 {
				m.Jobs.Queued++
			} else {
				m.Jobs.Running++
			}
		case statusDone:
			m.Jobs.Done++
		case statusFailed:
			m.Jobs.Failed++
		case statusCancelled:
			m.Jobs.Cancelled++
		case statusInterrupted:
			m.Jobs.Interrupted++
		}
		m.Jobs.Total++
		m.SnapshotHits += v.SnapshotHits
		m.StepsSaved += v.StepsSaved
	}
	s.mu.Unlock()
	m.Replica = s.name
	m.Admission.InFlight = s.active.Load()
	m.Admission.MaxQueue = int64(s.maxQueue)
	m.Admission.Draining = s.draining.Load()
	s.sampleAdmissionGauges()
	m.BytesSimulated = s.bytesSimulated.Load()
	m.StoreRuns = s.store.Count()
	m.StoreSnapshots = s.store.SnapshotCount()
	m.Telemetry = obs.Default.Snapshot()
	m.Runtime = obs.RuntimeSample()
	cluster.WriteJSON(w, http.StatusOK, m)
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
	s.mu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.byID[id].view())
	}
	s.mu.Unlock()
	cluster.WriteJSON(w, http.StatusOK, views)
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req cluster.SweepSpec
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	req.ApplyDefaults()
	if _, ok := experiments.Lookup(req.Experiment); !ok {
		cluster.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown experiment %q (have %s)", req.Experiment, strings.Join(experiments.Names(), ", ")))
		return
	}
	scale, err := experiments.ParseScale(req.Scale)
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	key := req.Key()
	j, ctx, existing, err := s.createJob(key, func(j *job) {
		j.Kind = "sweep"
		j.Experiment = req.Experiment
		j.Scale = req.Scale
		j.Seed = req.Seed
		j.stats = &experiments.SweepStats{}
	})
	if err != nil {
		s.writeUnavailable(w, err)
		return
	}
	if existing {
		cluster.WriteJSON(w, http.StatusOK, j.view())
		return
	}
	s.wg.Add(1)
	go s.runJob(ctx, j, func(ctx context.Context) (any, error) { return s.sweep(ctx, j, scale) })
	cluster.WriteJSON(w, http.StatusAccepted, j.view())
}

// errAtCapacity/errDraining are returned by createJob when a new job is
// refused — by the -max-queue admission cap, or because the replica is
// draining; the handlers translate either into a structured 503 with
// Retry-After (writeUnavailable).
var (
	errAtCapacity = errors.New("server at capacity")
	errDraining   = errors.New("server draining")
)

// retryAfterSec derives the Retry-After hint from measured state
// instead of a hard-coded second: the median job run time spread across
// the cap's slots approximates how long until one frees (cap jobs
// complete at roughly cap/p50 per second), scaled by how deep the
// in-flight window currently is relative to the cap. Clamped to
// [1, 30]; 1 before any job has completed (no measurement yet).
func (s *server) retryAfterSec() int {
	if s.maxQueue <= 0 {
		return 1
	}
	p50 := jobRunTrain.Quantile(0.5)
	if v := jobRunSweep.Quantile(0.5); v > p50 {
		p50 = v
	}
	capf := float64(s.maxQueue)
	sec := math.Ceil(p50 / capf * float64(s.active.Load()) / capf)
	if sec < 1 {
		return 1
	}
	if sec > 30 {
		return 30
	}
	return int(sec)
}

// writeUnavailable emits the 503 for a refused submission: a structured
// JSON body naming the reason, plus a Retry-After hint derived from
// measured job durations so well-behaved clients (and fdaload, which
// counts rejections as shed load rather than errors) back off
// proportionally instead of hammering.
func (s *server) writeUnavailable(w http.ResponseWriter, cause error) {
	retry := s.retryAfterSec()
	msg := fmt.Sprintf("server at capacity: %d jobs in flight (max %d); retry later", s.active.Load(), s.maxQueue)
	if errors.Is(cause, errDraining) {
		msg = "server draining: not accepting new jobs"
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	cluster.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":           msg,
		"in_flight":       s.active.Load(),
		"max_queue":       s.maxQueue,
		"draining":        s.draining.Load(),
		"retry_after_sec": retry,
	})
}

// handleDrain implements POST /v1/drain (stop admitting, keep serving
// reads and in-flight jobs) and DELETE /v1/drain (re-admit). Draining
// is how an operator or orchestrator takes a replica out of a fdagate
// rotation without killing in-flight work: the gateway's poller sees
// admission.draining and routes new submissions elsewhere.
func (s *server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.draining.Store(r.Method == http.MethodPost)
	cluster.WriteJSON(w, http.StatusOK, map[string]any{
		"draining":  s.draining.Load(),
		"in_flight": s.active.Load(),
	})
}

// createJob registers a new job under key — wired to a fresh child
// context of baseCtx before it becomes visible to other handlers, so a
// concurrent DELETE always finds a live cancel function — or returns
// the existing job when a live (running/done) one already owns the key.
// Failed and cancelled jobs give way to a retry, which re-executes only
// the work the registry (cells, train results, resume snapshots)
// lacks. With -max-queue set, a submission that would push the
// in-flight job count past the cap returns errAtCapacity instead of
// admitting unboundedly; dedupe hits are never refused — they create
// no work.
func (s *server) createJob(key string, init func(*job)) (*job, context.Context, bool, error) {
	s.mu.Lock()
	if j, ok := s.byKey[key]; ok {
		st := j.view().Status
		if st != statusFailed && st != statusCancelled && st != statusInterrupted {
			s.mu.Unlock()
			return j, nil, true, nil
		}
	}
	if s.draining.Load() {
		s.mu.Unlock()
		jobsRejected.Inc()
		return nil, nil, false, errDraining
	}
	if s.maxQueue > 0 && s.active.Load() >= int64(s.maxQueue) {
		s.mu.Unlock()
		jobsRejected.Inc()
		return nil, nil, false, errAtCapacity
	}
	s.nextID++
	j := &job{
		ID:         fmt.Sprintf("r%d", s.nextID),
		key:        key,
		out:        &lockedBuffer{},
		done:       make(chan struct{}),
		events:     newBroker(),
		status:     statusRunning,
		admittedNs: s.now(),
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	init(j)
	s.byID[j.ID] = j
	s.byKey[key] = j
	s.order = append(s.order, j.ID)
	s.active.Add(1)
	view := j.view()
	s.mu.Unlock()
	// Journal disk I/O happens outside s.mu so a slow disk cannot stall
	// every status poll behind a submission.
	s.journal.record(view, key)
	return j, ctx, false, nil
}

// sweep runs a figure sweep under ctx; the store-aware scheduler inside
// the runner serves every already-cached cell from disk, and
// cancellation (DELETE or shutdown) stops it between cells, so the
// persisted cells fund the next submission of the same spec.
func (s *server) sweep(ctx context.Context, j *job, scale experiments.Scale) (any, error) {
	return experiments.Run(j.Experiment, experiments.Options{
		Scale: scale,
		Seed:  j.Seed,
		Out:   j.out,
		Jobs:  s.jobs,
		Store: s.store,
		Stats: j.stats,
		Warm:  s.warm,
		Ctx:   ctx,
		Events: func(ce experiments.CellEvent) {
			j.events.publish("cell", map[string]any{
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

func (s *server) job(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[r.PathValue("id")]
	return j, ok
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "no such run")
		return
	}
	cluster.WriteJSON(w, http.StatusOK, j.view())
}

// handleCancel implements DELETE /v1/runs/{id}: the job's context is
// cancelled, the handler waits for the run goroutine to wind down
// (sweeps stop between cells, training sessions between steps — storing
// a resume snapshot), and the final view (status "cancelled") is
// returned. Cancelling a finished job is a no-op conflict.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "no such run")
		return
	}
	if st := j.view().Status; st != statusRunning {
		cluster.WriteError(w, http.StatusConflict, "run already "+st)
		return
	}
	j.cancel()
	select {
	case <-j.done:
	case <-r.Context().Done():
		cluster.WriteError(w, http.StatusRequestTimeout, "cancellation requested; run still draining")
		return
	}
	cluster.WriteJSON(w, http.StatusOK, j.view())
}

// handleEvents implements GET /v1/runs/{id}/events as Server-Sent
// Events: an initial "status" event, then the job's live progress
// ("cell" for sweep cells; "step", "sync", "eval" for training
// sessions), a terminal "done"/"status" event, and EOF. Events are a
// live feed, not a replay log: progress emitted before the subscription
// is summarized by the initial status snapshot, and a slow consumer may
// have intermediate events dropped rather than stall the run.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "no such run")
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

	// Subscribe before the snapshot so no event between the two is lost.
	ch, unsub := j.events.subscribe()
	defer unsub()
	writeSSE(w, "status", j.view())
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case msg, ok := <-ch:
			if !ok {
				// Broker closed: the run finished. Emit the terminal view.
				writeSSE(w, "status", j.view())
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", msg.event, msg.data)
			fl.Flush()
		}
	}
}

func (s *server) handleRecords(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "no such run")
		return
	}
	j.mu.Lock()
	status, result := j.status, j.result
	j.mu.Unlock()
	switch status {
	case statusRunning:
		cluster.WriteError(w, http.StatusConflict, "run still executing; poll /v1/runs/"+j.ID)
	case statusFailed, statusCancelled, statusInterrupted:
		cluster.WriteError(w, http.StatusConflict, "run "+status+"; see /v1/runs/"+j.ID)
	default:
		cluster.WriteJSON(w, http.StatusOK, map[string]any{"id": j.ID, "records": result})
	}
}

func (s *server) handleOutput(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "no such run")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, j.out.String())
}

// writeSSE emits one Server-Sent Event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// lockedBuffer lets status endpoints read a job's rendered output while
// the runner is still writing it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// broker fans a job's progress events out to SSE subscribers. Publishing
// never blocks the run: a subscriber whose buffer is full misses that
// event (SSE consumers resynchronize from status snapshots).
type broker struct {
	mu     sync.Mutex
	subs   map[chan sseMsg]struct{}
	closed bool
}

type sseMsg struct {
	event string
	data  string
}

func newBroker() *broker {
	return &broker{subs: map[chan sseMsg]struct{}{}}
}

// publish marshals v once and offers it to every subscriber. With no
// subscribers it returns before encoding anything, so an unwatched
// training run pays one mutex round-trip per event, not a JSON encode.
func (b *broker) publish(event string, v any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	msg := sseMsg{event: event, data: string(data)}
	for ch := range b.subs {
		select {
		case ch <- msg:
		default: // slow subscriber: drop rather than stall the run
		}
	}
}

// subscribe registers a consumer; the returned channel closes when the
// job finishes. unsub is idempotent and safe after close.
func (b *broker) subscribe() (<-chan sseMsg, func()) {
	ch := make(chan sseMsg, 256)
	b.mu.Lock()
	if b.closed {
		close(ch)
		b.mu.Unlock()
		return ch, func() {}
	}
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
		}
		b.mu.Unlock()
	}
}

// close ends the stream for every subscriber.
func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		close(ch)
	}
	b.subs = map[chan sseMsg]struct{}{}
}

// journal appends job status transitions to the replica's own file in
// the store directory (journalFile) so an operator (or the replica
// itself after a restart) can see which runs were interrupted — the
// discovery half of registry-backed resume.
// Journal writes are advisory: a failure disables the journal but never
// a run.
type journal struct {
	mu   sync.Mutex
	path string
	bad  bool
}

type journalEntry struct {
	Time time.Time `json:"time"`
	// Key is the job's dedupe key, journaled so a restarted server can
	// re-register resurrected jobs under it (entries from before the key
	// was journaled resurrect without one and simply never dedupe).
	Key string `json:"key,omitempty"`
	jobView
}

// journalFile names replica name's journal, jobs-<name>.jsonl with the
// name query-escaped: any name (a listen address like ":8080", a label
// with a slash) is one portable file name, and distinct names never
// share a file. A name too long to escape into one gets a digest.
func journalFile(name string) string {
	esc := url.QueryEscape(name)
	if len(esc) > 128 {
		sum := sha256.Sum256([]byte(name))
		esc = hex.EncodeToString(sum[:8])
	}
	return "jobs-" + esc + ".jsonl"
}

func (jn *journal) record(v jobView, key string) {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.bad {
		return
	}
	line, err := json.Marshal(journalEntry{Time: time.Now().UTC(), Key: key, jobView: v})
	if err != nil {
		return
	}
	if err := appendLine(jn.path, line); err != nil {
		jn.bad = true
	}
}

// read parses the journal into one entry per job — the last journaled
// transition wins, in first-seen job order. Unparseable lines (a torn
// tail from a crash mid-append) are skipped, not fatal.
func (jn *journal) read() ([]journalEntry, error) {
	b, err := os.ReadFile(jn.path)
	if err != nil {
		return nil, err
	}
	var entries []journalEntry
	index := map[string]int{}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.ID == "" {
			continue
		}
		if i, ok := index[e.ID]; ok {
			entries[i] = e
		} else {
			index[e.ID] = len(entries)
			entries = append(entries, e)
		}
	}
	return entries, nil
}

// compact atomically rewrites the journal to one line per job.
func (jn *journal) compact(entries []journalEntry) {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.bad {
		return
	}
	var b strings.Builder
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	tmp := jn.path + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		jn.bad = true
		return
	}
	if err := os.Rename(tmp, jn.path); err != nil {
		jn.bad = true
	}
}

// recoverJournal replays the job journal left by previous server
// processes: jobs journaled mid-run resurface in /v1/runs as
// "interrupted" (their keys give way to resubmissions, which resume
// from the registry), the ID counter continues
// past every journaled ID, and the journal file is compacted to its
// last entry per job. Called once, before the listener starts.
func (s *server) recoverJournal() {
	entries, err := s.journal.read()
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "fdaserve: reading job journal: %v\n", err)
		}
		return
	}
	s.mu.Lock()
	for i, e := range entries {
		// An id at the counter's ceiling is not continued past: the
		// counter would wrap round to ids the journal may hold.
		var n int
		if _, err := fmt.Sscanf(e.ID, "r%d", &n); err == nil && n > s.nextID && n < math.MaxInt {
			s.nextID = n
		}
		if e.Status != statusRunning && e.Status != statusInterrupted {
			continue // terminal in a past life; history only
		}
		e.Status = statusInterrupted
		if e.Error == "" {
			e.Error = "server exited mid-run; resubmit to resume"
		}
		entries[i] = e
		j := resurrectJob(e)
		s.byID[j.ID] = j
		if j.key != "" {
			s.byKey[j.key] = j
		}
		s.order = append(s.order, j.ID)
	}
	s.mu.Unlock()
	s.journal.compact(entries)
}

// resurrectJob rebuilds a terminal job shell from its journal entry:
// live machinery (done channel, event broker, cancel) is present but
// already finished, so every handler treats it like any other
// terminal job.
func resurrectJob(e journalEntry) *job {
	j := &job{
		ID: e.ID, Kind: e.Kind, Experiment: e.Experiment, Scale: e.Scale, Seed: e.Seed,
		key:    e.Key,
		out:    &lockedBuffer{},
		done:   make(chan struct{}),
		cancel: func() {},
		events: newBroker(),
		status: e.Status,
		errMsg: e.Error,
	}
	close(j.done)
	j.events.close()
	if e.Cells > 0 || e.Cached > 0 || e.Executed > 0 || e.SnapshotHits > 0 {
		j.stats = &experiments.SweepStats{}
		j.stats.Cells.Store(e.Cells)
		j.stats.Cached.Store(e.Cached)
		j.stats.Executed.Store(e.Executed)
		j.stats.SnapshotHits.Store(e.SnapshotHits)
		j.stats.StepsSaved.Store(e.StepsSaved)
	}
	j.steps.Store(e.Steps)
	j.syncs.Store(e.Syncs)
	j.resumed.Store(e.Resumed)
	return j
}
