// Package clock is the serving tier's one time source (DESIGN.md §6,
// §13, §14): the load runner, the trace recorder, the gateway's pool
// and HTTP shell and the job table read time only through a Clock.
// Wall is the production clock and the tier's only wall-clock edge;
// Virtual is the deterministic clock tests drive. The fabric's
// training clock (§9) is not a Clock: it is part of the numerics.
package clock

import (
	"sync/atomic"
	"time"
)

// Clock reads monotonic nanoseconds anchored at the Unix epoch and
// waits for an instant.
type Clock interface {
	// Now returns the current instant in nanoseconds since the Unix
	// epoch. Successive reads never decrease.
	Now() int64
	// WaitUntil blocks until Now() >= ns or stop closes. A nil stop
	// never fires.
	WaitUntil(ns int64, stop <-chan struct{})
}

// Wall returns the wall clock: the Unix time of the call, advanced by
// the monotonic clock, so a step of the system clock never moves it.
func Wall() Clock {
	//fda:allow(wallclock, the serving wall clock's anchor; serving time never feeds training math)
	return wall{epoch: time.Now()}
}

type wall struct{ epoch time.Time }

func (w wall) Now() int64 {
	//fda:allow(wallclock, the serving wall clock's monotonic read; serving time never feeds training math)
	return w.epoch.UnixNano() + int64(time.Since(w.epoch))
}

// WaitUntil waits on a timer, which fires at once for a past instant.
func (w wall) WaitUntil(ns int64, stop <-chan struct{}) {
	//fda:allow(wallclock, the serving wall clock's wait; serving time never feeds training math)
	t := time.NewTimer(time.Duration(ns - w.Now()))
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	}
}

// Virtual is a Clock that moves only when driven: Advance steps it,
// and WaitUntil jumps it to the instant waited for instead of
// blocking. No interleaving of calls moves it backwards. The zero
// value reads 0, the Unix epoch.
type Virtual struct{ ns atomic.Int64 }

// Now returns the virtual instant.
func (v *Virtual) Now() int64 { return v.ns.Load() }

// Advance moves the clock forward by d nanoseconds; d must be
// non-negative.
func (v *Virtual) Advance(d int64) { v.ns.Add(d) }

// WaitUntil moves the clock to ns unless it already reads later, and
// returns at once. It retries only when another call moved the clock
// between its read and its swap.
func (v *Virtual) WaitUntil(ns int64, _ <-chan struct{}) {
	for cur := v.ns.Load(); cur < ns && !v.ns.CompareAndSwap(cur, ns); cur = v.ns.Load() {
	}
}
