package core

// Event is one element of a training session's typed progress stream.
// Sessions emit events synchronously, on the training goroutine, in a
// deterministic order per step: StepEvent, then SyncEvent if the strategy synchronized, then
// EvalEvent if the step was an evaluation point, then DoneEvent once the
// run finishes (DESIGN.md §8). Sinks must not retain pointers into
// mutable session state; every event payload is self-contained values.
type Event interface {
	// Kind names the event variant ("step", "sync", "eval", "done") for
	// log lines and the SSE wire format.
	Kind() string
}

// StepEvent reports one completed training step.
type StepEvent struct {
	// Step is the 1-based global step that just completed. Under
	// asynchronous FDA it is the cluster's total worker steps divided by
	// K (the in-parallel step count), and Worker identifies which worker
	// moved.
	Step int `json:"step"`
	// Worker is the worker that completed a local step under
	// asynchronous FDA; -1 in lock-step sessions, where every worker
	// steps together.
	Worker int `json:"worker"`
	// VirtualTime is the fabric's virtual clock when that worker's state
	// reached the coordinator under asynchronous FDA; 0 in lock-step
	// sessions.
	VirtualTime float64 `json:"virtual_time,omitempty"`
}

// Kind implements Event.
func (StepEvent) Kind() string { return "step" }

// SyncEvent reports one model synchronization.
type SyncEvent struct {
	// Step is the global step at which the synchronization happened.
	Step int `json:"step"`
	// SyncCount is the total number of synchronizations so far, this one
	// included.
	SyncCount int `json:"sync_count"`
	// Trigger names the policy decision that triggered the
	// synchronization (the strategy name, e.g. "LinearFDA" for a
	// variance-threshold crossing, "LocalSGD(τ=10)" for a schedule tick).
	Trigger string `json:"trigger"`
	// SyncBytes is the model traffic charged for this synchronization.
	SyncBytes int64 `json:"sync_bytes"`
	// TotalBytes is the cumulative communication (state + model) after it.
	TotalBytes int64 `json:"total_bytes"`
}

// Kind implements Event.
func (SyncEvent) Kind() string { return "sync" }

// EvalEvent reports one evaluation of the averaged global model.
type EvalEvent struct {
	// Point is the evaluation snapshot appended to the run history.
	Point Point `json:"point"`
}

// Kind implements Event.
func (EvalEvent) Kind() string { return "eval" }

// DoneEvent is the final event of a session: the run completed (max
// steps, target accuracy, or divergence — inspect Result and Err).
type DoneEvent struct {
	// Result is the finished run's summary.
	Result Result `json:"result"`
	// Err holds the failure message when the run ended in an error
	// (divergence); empty on success.
	Err string `json:"err,omitempty"`
}

// Kind implements Event.
func (DoneEvent) Kind() string { return "done" }

// EventSink consumes session events. Sinks run synchronously on the
// training goroutine — slow sinks slow the run, and a sink must never
// call back into the session.
type EventSink func(Event)
