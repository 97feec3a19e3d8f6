package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

// Tracer serializes spans into the Chrome trace-event JSON array format
// (one "X" complete event per span), which chrome://tracing and
// Perfetto open directly. At most one tracer is active per process;
// writes are serialized under its mutex and buffered, so tracing is a
// cold-path cost paid only when explicitly armed.
type Tracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer // underlying writer, when it wants closing
	buf   []byte    // event scratch, reused across writes
	first bool
	err   error
}

// active is the process's tracer, nil when tracing is off.
var active atomic.Pointer[Tracer]

// TraceTo arms tracing: subsequent spans are appended to w as a Chrome
// trace-event JSON array. If w implements io.Closer, StopTrace closes
// it. An error is returned if a trace is already active.
func TraceTo(w io.Writer) error {
	t := &Tracer{w: bufio.NewWriter(w), first: true}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	if !active.CompareAndSwap(nil, t) {
		return fmt.Errorf("obs: a trace is already active")
	}
	t.mu.Lock()
	_, t.err = t.w.WriteString("[\n")
	t.mu.Unlock()
	// Name the process row so Perfetto shows "fda" instead of "pid 1".
	meta := StartRegion("process_name", "__metadata")
	meta.write('M', 0, "name", "fda")
	return nil
}

// StopTrace closes the JSON array, flushes, disarms tracing and closes
// the underlying writer when it is closable. It returns the first
// write error seen over the trace's lifetime.
func StopTrace() error {
	t := active.Swap(nil)
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.w.WriteString("\n]\n"); err != nil && t.err == nil {
		t.err = err
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Tracing reports whether a tracer is armed.
func Tracing() bool { return active.Load() != nil }

// Region is an in-flight span (after runtime/trace's StartRegion). It
// is a value: starting one allocates nothing, and the zero Region —
// returned whenever tracing is off — makes every method a no-op after
// one nil check.
type Region struct {
	t     *Tracer
	name  string
	cat   string
	start int64
}

// StartRegion opens a span; end it with End or EndArgs. cat groups
// spans into Perfetto categories ("session", "fabric", "runstore",
// "http").
//
//fda:noalloc
func StartRegion(name, cat string) Region {
	t := active.Load()
	if t == nil {
		return Region{}
	}
	return Region{t: t, name: name, cat: cat, start: clockNow()}
}

// Active reports whether the region will be written — callers can skip
// building expensive args when it won't.
//
//fda:noalloc
func (r Region) Active() bool { return r.t != nil }

// EndArgs closes the span attaching trace args from alternating
// key/value pairs (values: int, int64, float64, bool, string).
func (r Region) EndArgs(kv ...any) {
	if r.t == nil {
		return
	}
	r.write('X', clockNow()-r.start, kv...)
}

// Instant records a zero-duration instant event (a vertical tick in
// the viewer) — used for point occurrences like sync triggers.
func Instant(name, cat string, kv ...any) {
	t := active.Load()
	if t == nil {
		return
	}
	r := Region{t: t, name: name, cat: cat, start: clockNow()}
	r.write('i', 0, kv...)
}

// write serializes one event under the tracer lock. ts/dur are in
// microseconds (the trace-event unit) with nanosecond decimals.
func (r Region) write(ph byte, dur int64, kv ...any) {
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf[:0]
	if t.first {
		t.first = false
	} else {
		b = append(b, ",\n"...)
	}
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, r.name)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, r.cat)
	b = append(b, `,"ph":"`...)
	b = append(b, ph)
	b = append(b, `","pid":1,"tid":1,"ts":`...)
	b = strconv.AppendFloat(b, float64(r.start)/1e3, 'f', 3, 64)
	if ph == 'X' {
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, float64(dur)/1e3, 'f', 3, 64)
	}
	if ph == 'i' {
		// Instant scope: thread.
		b = append(b, `,"s":"t"`...)
	}
	b = appendArgs(b, kv)
	b = append(b, '}')
	t.buf = b
	if _, err := t.w.Write(b); err != nil && t.err == nil {
		t.err = err
	}
}

// appendArgs renders an "args" object from alternating key/value
// pairs; malformed pairs are skipped rather than corrupting the trace.
func appendArgs(b []byte, kv []any) []byte {
	if len(kv) < 2 {
		return b
	}
	b = append(b, `,"args":{`...)
	n := 0
	for i := 0; i+1 < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = strconv.AppendQuote(b, k)
		b = append(b, ':')
		switch v := kv[i+1].(type) {
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case uint64:
			b = strconv.AppendUint(b, v, 10)
		case float64:
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		case bool:
			b = strconv.AppendBool(b, v)
		case string:
			b = strconv.AppendQuote(b, v)
		default:
			b = strconv.AppendQuote(b, fmt.Sprint(v))
		}
	}
	return append(b, '}')
}
