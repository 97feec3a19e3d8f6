// Package obs is the process-wide telemetry layer: a metrics registry
// (counters, gauges, fixed-bucket histograms with p50/p95/p99 readout),
// Chrome-trace-event span tracing, and Prometheus text exposition.
//
// Telemetry is strictly a side channel (DESIGN.md §11): nothing in this
// package feeds back into training math, so results are bit-identical
// with observability on, off or sampled — a contract pinned by the
// parity tests in internal/core. The layer is built for hot paths:
// metric updates are single atomic operations on pre-resolved pointers
// (no map lookups, no allocation), and when telemetry is disabled —
// the default — every entry point reduces to one atomic load and an
// early return, so instrumented code pays no measurable cost
// (alloc_test.go asserts the zero-allocation half in both states).
package obs

import (
	"sync/atomic"
	"time"
)

// enabled gates every metric update and clock read in the process.
// Disabled (the default), instrumentation costs one atomic load.
var enabled atomic.Bool

// Enable turns metric collection on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns metric collection off; subsequent updates are dropped.
func Disable() { enabled.Store(false) }

// On reports whether metric collection is enabled.
func On() bool { return enabled.Load() }

// epoch anchors Clock: readings are monotonic nanoseconds since process
// start (time.Since reads the monotonic clock).
//
//fda:allow(wallclock, the trace epoch: telemetry timestamps are a side channel and never feed training math)
var epoch = time.Now()

// Clock returns the current monotonic time in nanoseconds when
// telemetry is enabled, and 0 when disabled — so call sites can stamp
// a start time without paying for a clock read in the disabled case:
//
//	start := obs.Clock()
//	...
//	hist.Since(start) // no-op when start == 0
func Clock() int64 {
	if !enabled.Load() {
		return 0
	}
	//fda:allow(wallclock, monotonic span timestamps are telemetry-only; parity-pinned to not affect results)
	return int64(time.Since(epoch))
}

// clockNow is Clock without the gate, for paths (the tracer) that are
// active regardless of the metrics switch.
//
//fda:allow(wallclock, monotonic span timestamps are telemetry-only; parity-pinned to not affect results)
func clockNow() int64 { return int64(time.Since(epoch)) }
