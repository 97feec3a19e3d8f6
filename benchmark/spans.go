package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one step or
// one client op share Op; Parent is the span that caused this one (0
// for a root). Times are nanoseconds since the tracer's epoch.
type span struct {
	Name       string
	ID, Parent int32
	Op         int64
	Lane       int32
	Start, End int64
}

// tracer keeps spans in memory for the length of a traced pass and
// writes them out when the pass ends. It belongs to the benchmark: the
// program under test is not modified, the decorators in wrap.go and the
// workload loops record around the calls into each layer.
//
// Each goroutine that records owns a lane and appends to it without
// locking. cur is the span new spans attach to: the stepping goroutine
// (or a client) sets it before calling into a layer, and the layer's
// decorators — which may run on pool goroutines started inside that
// call — read it.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32
	cur    atomic.Int32
	op     atomic.Int64
	// on gates recording: decorators stay installed through a traced
	// session's warm-up but record only the timed phase.
	on atomic.Bool

	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	t     *tracer
	id    int32
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newLane registers a recording lane (rendered as one thread row).
func (t *tracer) newLane() *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, id: int32(len(t.lanes) + 1)}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span under the tracer's current parent and returns its
// index in the lane (for end) and its id (for nesting). While recording
// is off it returns (-1, 0).
func (l *lane) begin(name string) (idx int, id int32) {
	return l.beginUnder(name, l.t.cur.Load(), l.t.op.Load())
}

// beginUnder opens a span under an explicit parent and op id, for
// lanes that run concurrently with other ops (the serve_mix clients).
func (l *lane) beginUnder(name string, parent int32, op int64) (idx int, id int32) {
	if !l.t.on.Load() {
		return -1, 0
	}
	id = l.t.nextID.Add(1)
	l.spans = append(l.spans, span{
		Name: name, ID: id, Parent: parent, Op: op, Lane: l.id, Start: l.t.now(),
	})
	return len(l.spans) - 1, id
}

// end closes the span begin returned; idx -1 (recording was off) is a
// no-op.
func (l *lane) end(idx int) {
	if idx >= 0 {
		l.spans[idx].End = l.t.now()
	}
}

// all returns every recorded span ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count   int
	TotalNs int64
	// SelfNs is total time minus the part covered by child spans.
	SelfNs int64
}

func (s spanStat) meanMs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count) / 1e6
}

// aggregate folds spans by name, computing self time as each span's
// duration minus the part of its interval its children cover. Children
// may overlap one another (optimizer steps of parallel workers under
// one training step), so coverage is the union of their intervals
// clipped to the parent, not the sum of their durations.
func aggregate(spans []span) map[string]spanStat {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		dur := s.End - s.Start
		st.Count++
		st.TotalNs += dur
		st.SelfNs += dur - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered returns how much of [lo, hi) the given spans cover.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	ks := append([]span(nil), kids...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
	var total int64
	edge := lo
	for _, k := range ks {
		s, e := k.Start, k.End
		if s < edge {
			s = edge
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// writeChromeTrace renders spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps) loadable in Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	body, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
