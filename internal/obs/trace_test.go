package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// traceEvent is the Chrome trace-event schema subset the tracer emits.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Args map[string]any `json:"args"`
}

// collectTrace runs body under an armed tracer and returns the decoded
// event array — the schema gate for everything -trace writes.
func collectTrace(t *testing.T, body func()) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := TraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	body()
	if err := StopTrace(); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON event array: %v\n%s", err, buf.String())
	}
	return events
}

func TestTraceSchema(t *testing.T) {
	events := collectTrace(t, func() {
		r := StartRegion("AllReduce", "fabric")
		r.EndArgs("bytes", int64(1024), "virtual_sec", 0.25, "kind", "model")
		Instant("sync", "session", "trigger", "LinearFDA")
	})
	if len(events) != 3 { // metadata + span + instant
		t.Fatalf("got %d events, want 3: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Name == "" || ev.Ph == "" || ev.Pid == nil || ev.Tid == nil || ev.Ts == nil {
			t.Fatalf("event %d missing required fields: %+v", i, ev)
		}
	}
	if events[0].Ph != "M" || events[0].Args["name"] != "fda" {
		t.Fatalf("first event is not process metadata: %+v", events[0])
	}
	sp := events[1]
	if sp.Ph != "X" || sp.Dur == nil || *sp.Dur < 0 || sp.Cat != "fabric" {
		t.Fatalf("span event malformed: %+v", sp)
	}
	if sp.Args["bytes"] != float64(1024) || sp.Args["virtual_sec"] != 0.25 || sp.Args["kind"] != "model" {
		t.Fatalf("span args = %v", sp.Args)
	}
	if inst := events[2]; inst.Ph != "i" || inst.Args["trigger"] != "LinearFDA" {
		t.Fatalf("instant event malformed: %+v", inst)
	}
}

func TestTraceInactiveIsNoop(t *testing.T) {
	if Tracing() {
		t.Fatal("tracer unexpectedly armed")
	}
	r := StartRegion("x", "y")
	if r.Active() {
		t.Fatal("region active without a tracer")
	}
	r.EndArgs()
	r.EndArgs("k", 1)
	Instant("x", "y")
	if err := StopTrace(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDoubleArm(t *testing.T) {
	var buf bytes.Buffer
	if err := TraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	defer StopTrace()
	if err := TraceTo(&buf); err == nil {
		t.Fatal("second TraceTo succeeded, want error")
	}
}
