// Package jobs is fdaserve's job table: admission (the in-flight cap
// and drain), dedupe by spec key, the one goroutine each admitted job
// runs on and the mapping of its outcome to a terminal status, bounded
// retention of finished jobs, and the per-replica journal a restarted
// server recovers interrupted jobs from. It imports no net/http — the
// server routes and encodes, the table decides — and reads time only
// through the clock it is built with.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// Job status values. Transitions: running → done | failed | cancelled.
// "interrupted" is assigned only by Recover, to journaled jobs a
// previous process left mid-run; like failed and cancelled it gives way
// to a resubmission of the same spec, which resumes from the run
// registry (sweep cells, a train's result or its resume snapshot).
const (
	Running     = "running"
	Done        = "done"
	Failed      = "failed"
	Cancelled   = "cancelled"
	Interrupted = "interrupted"
)

// ErrAtCapacity and ErrDraining are Submit's refusals: the in-flight
// cap is reached, or the table is draining.
var (
	ErrAtCapacity = errors.New("server at capacity")
	ErrDraining   = errors.New("server draining")
)

// IsCancellation reports whether err is a job context ending (DELETE,
// shutdown or deadline) rather than a failure of the work itself.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// View is a job's status representation, shared by every endpoint and
// the journal.
type View struct {
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

// Counts is the "jobs" object of GET /v1/metrics, on a replica and in
// fdagate's aggregate alike: one count per status, summing to Total.
// Queued counts admitted jobs whose goroutine has not started yet.
type Counts struct {
	Queued      int64 `json:"queued"`
	Running     int64 `json:"running"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	Cancelled   int64 `json:"cancelled"`
	Interrupted int64 `json:"interrupted"`
	Total       int64 `json:"total"`
}

// Add sums o into c.
func (c *Counts) Add(o Counts) {
	c.Queued += o.Queued
	c.Running += o.Running
	c.Done += o.Done
	c.Failed += o.Failed
	c.Cancelled += o.Cancelled
	c.Interrupted += o.Interrupted
	c.Total += o.Total
}

// Admission is the "admission" object of GET /v1/metrics: the in-flight
// cap's live state, the headroom signal fdagate's router polls.
type Admission struct {
	InFlight int64 `json:"in_flight"`
	MaxQueue int64 `json:"max_queue"`
	Draining bool  `json:"draining"`
}

// Tally is one consistent read of the table for GET /v1/metrics.
type Tally struct {
	Jobs      Counts    `json:"jobs"`
	Admission Admission `json:"admission"`
	// BytesSimulated totals the communication accounting of every job
	// finished since the table was built (training results and sweep
	// records).
	BytesSimulated int64 `json:"bytes_simulated"`
	// SnapshotHits/StepsSaved total the warm-start reuse across every
	// sweep job: cells restored from a prefix snapshot and the training
	// steps those restores skipped.
	SnapshotHits int64 `json:"snapshot_hits"`
	StepsSaved   int64 `json:"steps_saved"`
}

// Job is one submitted run: a figure sweep or a training session. The
// identity fields are set by Submit's init and read-only after it; the
// progress fields are written by the job's body.
type Job struct {
	ID         string
	Kind       string // "sweep" or "train"
	Experiment string // sweep: experiment name; train: model/strategy
	Scale      string
	Seed       uint64
	// Key is the dedupe key the job was admitted under.
	Key string

	// Stats tracks a sweep's grid progress (nil for trains).
	Stats *experiments.SweepStats
	// Out holds a sweep's rendered tables and plots.
	Out Buffer
	// Steps, Syncs and Resumed track a training session (zero for sweeps).
	Steps, Syncs atomic.Int64
	Resumed      atomic.Bool

	events broker
	// done closes and cancel releases the context once the job is
	// terminal. A job recovered from the journal never runs: both are nil.
	done   chan struct{}
	cancel context.CancelFunc

	// admittedNs and startedNs are table-clock offsets, at admission and
	// when the job's goroutine starts (0 = still queued).
	admittedNs int64
	startedNs  atomic.Int64

	mu         sync.Mutex
	status     string
	errMsg     string
	result     any
	fabricAddr string
}

// View snapshots the job's status.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.ID, Kind: j.Kind, Experiment: j.Experiment, Scale: j.Scale, Seed: j.Seed,
		Status: j.status, Error: j.errMsg, FabricAddr: j.fabricAddr,
	}
	if j.Stats != nil {
		v.Cells = j.Stats.Cells.Load()
		v.Cached = j.Stats.Cached.Load()
		v.Executed = j.Stats.Executed.Load()
		v.SnapshotHits = j.Stats.SnapshotHits.Load()
		v.StepsSaved = j.Stats.StepsSaved.Load()
	}
	v.Steps, v.Syncs, v.Resumed = j.Steps.Load(), j.Syncs.Load(), j.Resumed.Load()
	return v
}

// Result returns the job's status and, once it is done, its result.
func (j *Job) Result() (status string, result any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.result
}

// SetFabricAddr publishes a distributed train job's coordinator address
// in its view.
func (j *Job) SetFabricAddr(addr string) {
	j.mu.Lock()
	j.fabricAddr = addr
	j.mu.Unlock()
}

// Cancel cancels a running job's context; the body winds down and Done
// closes.
func (j *Job) Cancel() {
	if j.cancel != nil {
		j.cancel()
	}
}

// Done closes when the job reaches its terminal status; it is nil for a
// job recovered from the journal, which is terminal from the start.
func (j *Job) Done() <-chan struct{} { return j.done }

// Buffer is a job's rendered output, readable while the job writes it.
type Buffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *Buffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *Buffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// Event is one message on a job's live stream: an event name and its
// JSON payload.
type Event struct{ Name, Data string }

// broker fans a job's events out to subscribers. Publishing never
// blocks the run: a subscriber whose buffer is full misses that event
// (SSE consumers resynchronize from status snapshots). The zero broker
// is closed.
type broker struct {
	mu   sync.Mutex
	open bool
	subs []chan Event
}

// Publish marshals v once and offers it to every subscriber. With no
// subscribers it returns before encoding anything, so an unwatched
// training run pays one mutex round-trip per event, not a JSON encode.
func (j *Job) Publish(event string, v any) {
	b := &j.events
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	for _, ch := range b.subs {
		select {
		case ch <- Event{event, string(data)}:
		default: // slow subscriber: drop rather than stall the run
		}
	}
}

// Subscribe registers a consumer of the job's live events. The channel
// closes when the job ends, and is nil if it already has; unsub is
// idempotent and safe after the close.
func (j *Job) Subscribe() (<-chan Event, func()) {
	b := &j.events
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return nil, func() {}
	}
	// Room for a burst of events between a consumer's reads; past it,
	// Publish drops rather than blocks.
	ch := make(chan Event, 256)
	b.subs = append(b.subs, ch)
	return ch, func() {
		b.mu.Lock()
		b.subs = slices.DeleteFunc(b.subs, func(c chan Event) bool { return c == ch })
		b.mu.Unlock()
	}
}

func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ch := range b.subs {
		close(ch)
	}
	b.open, b.subs = false, nil
}

// Table is one replica's jobs. Its in-flight count, listing and indexes
// change together under one lock; every admitted job runs on the one
// goroutine Submit starts, and Wait drains them all.
type Table struct {
	// MaxQueue caps in-flight (admitted, not yet terminal) jobs: past it
	// Submit refuses with ErrAtCapacity. 0 disables the cap. Set it
	// before the first Submit.
	MaxQueue int

	base    context.Context
	clock   func() time.Time
	start   time.Time
	retain  int
	journal journal
	wg      sync.WaitGroup

	queueWait, runSweep, runTrain *obs.Histogram
	rejected                      *obs.Counter
	inFlightGauge, maxQueueGauge  *obs.Gauge

	mu       sync.Mutex
	byID     map[string]*Job
	byKey    map[string]*Job
	order    []*Job // admission order: the listing, and the eviction order
	inFlight int
	draining bool
	nextID   int
	// carry holds BytesSimulated and the warm-start totals of evicted jobs.
	carry Tally
}

// New builds replica name's table, journaling to dir/JournalFile(name).
// It retains at most retain terminal jobs, evicting the oldest first;
// every job context is a child of base; clock stamps queue waits, run
// times and journal lines.
func New(dir, name string, retain int, clock func() time.Time, base context.Context) *Table {
	run := "Job wall-clock from execution start to terminal status."
	return &Table{
		base: base, clock: clock, start: clock(), retain: retain,
		journal: journal{path: filepath.Join(dir, JournalFile(name))},
		byID:    map[string]*Job{}, byKey: map[string]*Job{},
		queueWait: obs.Default.Histogram("fdaserve_job_queue_wait_seconds",
			"Delay between a job's admission and its execute goroutine starting.", obs.Seconds),
		runSweep: obs.Default.Histogram("fdaserve_job_run_seconds", run, obs.Seconds, "kind", "sweep"),
		runTrain: obs.Default.Histogram("fdaserve_job_run_seconds", run, obs.Seconds, "kind", "train"),
		rejected: obs.Default.Counter("fdaserve_jobs_rejected_total",
			"Job submissions refused by the -max-queue admission cap."),
		inFlightGauge: obs.Default.Gauge("fdaserve_jobs_in_flight",
			"Admitted jobs that have not reached a terminal status."),
		maxQueueGauge: obs.Default.Gauge("fdaserve_jobs_max_queue",
			"The -max-queue admission cap (0 = unbounded)."),
	}
}

// Now is the table's monotonic clock: nanoseconds since New.
func (t *Table) Now() int64 { return int64(t.clock().Sub(t.start)) }

// Submit admits a job under key and runs body on the job's own
// goroutine, or returns the job already holding key (existing) while
// that one is running or done. A failed, cancelled or interrupted
// holder gives way: the resubmission re-executes only the work the run
// registry lacks. Dedupe hits are never refused — they create no work;
// a new job is refused with ErrDraining or, at the MaxQueue cap,
// ErrAtCapacity. init fills the job's identity, outside the table's
// lock, before the job is visible; the table assigns its ID.
func (t *Table) Submit(key string, init func(*Job), body func(context.Context, *Job) (any, error)) (j *Job, existing bool, err error) {
	j = &Job{Key: key, done: make(chan struct{}), status: Running}
	j.events.open = true
	init(j)
	t.mu.Lock()
	if old, ok := t.byKey[key]; ok {
		if st, _ := old.Result(); st == Running || st == Done {
			t.mu.Unlock()
			return old, true, nil
		}
	}
	if t.draining {
		err = ErrDraining
	} else if t.MaxQueue > 0 && t.inFlight >= t.MaxQueue {
		err = ErrAtCapacity
	}
	if err != nil {
		t.mu.Unlock()
		t.rejected.Inc()
		return nil, false, err
	}
	t.nextID++
	j.ID, j.admittedNs = fmt.Sprintf("r%d", t.nextID), t.Now()
	ctx, cancel := context.WithCancel(t.base)
	j.cancel = cancel
	t.byID[j.ID], t.byKey[key] = j, j
	t.order = append(t.order, j)
	t.inFlight++
	t.wg.Add(1)
	view := j.View()
	t.mu.Unlock()
	// Journal I/O happens outside t.mu, so a slow disk cannot stall every
	// status poll behind a submission.
	t.journal.record(t.clock(), view, key)
	go t.run(ctx, j, body)
	return j, false, nil
}

// run is the life of every job goroutine: it stamps the start (the
// admission→start interval feeds the queue-wait histogram), runs body
// under the job's context, maps its outcome — a result, a cancellation,
// an error or a panic — to the one terminal status, and releases
// everything waiting on the job.
func (t *Table) run(ctx context.Context, j *Job, body func(context.Context, *Job) (any, error)) {
	now := t.Now()
	j.startedNs.Store(now)
	t.queueWait.Observe(now - j.admittedNs)
	defer t.wg.Done()
	defer j.events.close()
	defer close(j.done)
	defer j.cancel() // a finished job's context must not stay registered with base
	defer func() {
		if r := recover(); r != nil {
			t.finish(j, Failed, fmt.Sprintf("panic: %v", r), nil)
		}
	}()
	res, err := body(ctx, j)
	switch {
	case err == nil:
		t.finish(j, Done, "", res)
	case IsCancellation(err):
		t.finish(j, Cancelled, err.Error(), nil)
	default:
		t.finish(j, Failed, err.Error(), nil)
	}
}

// finish records j's terminal transition and journals it. The status
// and the in-flight count change under one lock, so a job seen terminal
// has left the admission window.
func (t *Table) finish(j *Job, status, errMsg string, result any) {
	bytes := simulatedBytes(result)
	t.mu.Lock()
	j.mu.Lock()
	j.status, j.errMsg, j.result = status, errMsg, result
	j.mu.Unlock()
	t.inFlight--
	t.carry.BytesSimulated += bytes
	t.retire()
	t.mu.Unlock()
	run := t.runSweep
	if j.Kind == "train" {
		run = t.runTrain
	}
	run.Observe(t.Now() - j.startedNs.Load())
	t.journal.record(t.clock(), j.View(), j.Key)
}

// retire evicts the oldest terminal jobs past the retention bound from
// the id index, the key index (unless a newer job holds the key) and
// the listing; their output and broker go with them. In-flight jobs are
// never evicted. Called with t.mu held.
func (t *Table) retire() {
	for len(t.order)-t.inFlight > t.retain {
		i := slices.IndexFunc(t.order, func(j *Job) bool { st, _ := j.Result(); return st != Running })
		old := t.order[i]
		t.order = slices.Delete(t.order, i, i+1)
		delete(t.byID, old.ID)
		if t.byKey[old.Key] == old {
			delete(t.byKey, old.Key)
		}
		v := old.View()
		t.carry.SnapshotHits += v.SnapshotHits
		t.carry.StepsSaved += v.StepsSaved
	}
}

// simulatedBytes extracts the communication accounting of a finished
// job's result. Sweep records with nested accuracy targets share one
// training trajectory whose byte counts are cumulative, so each grid
// cell contributes its maximum CommGB once rather than the sum over
// targets. Unknown result shapes contribute nothing.
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
	var gb float64
	for _, k := range slices.Sorted(maps.Keys(maxPerCell)) {
		gb += maxPerCell[k]
	}
	return int64(gb * 1e9)
}

// Get returns the job with id, if the table still holds it.
func (t *Table) Get(id string) (*Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[id]
	return j, ok
}

// List returns every held job's view in admission order.
func (t *Table) List() []View {
	t.mu.Lock()
	defer t.mu.Unlock()
	views := make([]View, 0, len(t.order))
	for _, j := range t.order {
		views = append(views, j.View())
	}
	return views
}

// Tally counts the held jobs by status and reads the admission state
// and result totals, all under one lock.
func (t *Table) Tally() Tally {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.carry
	out.Admission = t.admission()
	for _, j := range t.order {
		v := j.View()
		switch v.Status {
		case Running:
			if j.startedNs.Load() == 0 {
				out.Jobs.Queued++
			} else {
				out.Jobs.Running++
			}
		case Done:
			out.Jobs.Done++
		case Failed:
			out.Jobs.Failed++
		case Cancelled:
			out.Jobs.Cancelled++
		case Interrupted:
			out.Jobs.Interrupted++
		}
		out.Jobs.Total++
		out.SnapshotHits += v.SnapshotHits
		out.StepsSaved += v.StepsSaved
	}
	return out
}

// Admission reads the admission state.
func (t *Table) Admission() Admission {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.admission()
}

func (t *Table) admission() Admission {
	return Admission{InFlight: int64(t.inFlight), MaxQueue: int64(t.MaxQueue), Draining: t.draining}
}

// SetDraining starts (true) or stops refusing new jobs; in-flight jobs
// run on either way.
func (t *Table) SetDraining(on bool) {
	t.mu.Lock()
	t.draining = on
	t.mu.Unlock()
}

// SampleGauges refreshes the admission gauges; both metrics endpoints
// call it before reading the registry.
func (t *Table) SampleGauges() {
	a := t.Admission()
	t.inFlightGauge.Set(float64(a.InFlight))
	t.maxQueueGauge.Set(float64(a.MaxQueue))
}

// RetryAfter is the Retry-After hint, in seconds, for a refused
// submission, derived from measured state instead of a constant: the
// median job run time spread across the cap's slots approximates how
// long until one frees, scaled by how deep the in-flight window is
// relative to the cap. Clamped to [1, 30]; 1 before any job has
// completed (no measurement yet).
func (t *Table) RetryAfter() int {
	a := t.Admission()
	if a.MaxQueue <= 0 {
		return 1
	}
	p50 := max(t.runTrain.Quantile(0.5), t.runSweep.Quantile(0.5))
	capf := float64(a.MaxQueue)
	return int(min(max(math.Ceil(p50/capf*float64(a.InFlight)/capf), 1), 30))
}

// Wait blocks until every admitted job has reached its terminal status
// (shutdown cancels base first).
func (t *Table) Wait() { t.wg.Wait() }
