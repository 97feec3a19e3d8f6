package obs

import "testing"

// The telemetry layer's own zero-cost contract (ISSUE 7, DESIGN.md
// §11): metric updates allocate nothing whether telemetry is on or
// off, and with it off (the default) the instrumentation entry points
// reduce to an atomic load. These assertions are the obs-side
// counterpart of internal/core's kernel alloc tests and run in the
// same uninstrumented `make allocs` pass.

func assertZeroAllocs(t *testing.T, name string, body func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	body() // warm-up
	if avg := testing.AllocsPerRun(100, body); avg != 0 {
		t.Fatalf("%s allocates %.1f times per call, want 0", name, avg)
	}
}

func TestMetricsZeroAllocsEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_c_total", "h", "k", "v")
	g := r.Gauge("alloc_g", "h")
	h := r.Histogram("alloc_h_seconds", "h", Seconds)
	withEnabled(t, func() {
		assertZeroAllocs(t, "Counter.Add", func() { c.Add(1) })
		assertZeroAllocs(t, "Gauge.Set", func() { g.Set(1.5) })
		assertZeroAllocs(t, "Histogram.Observe", func() { h.Observe(12345) })
		assertZeroAllocs(t, "Histogram.Since", func() { h.Since(Clock()) })
	})
}

func TestMetricsZeroAllocsDisabled(t *testing.T) {
	if On() {
		t.Fatal("telemetry unexpectedly enabled")
	}
	r := NewRegistry()
	c := r.Counter("alloc_d_total", "h")
	h := r.Histogram("alloc_d_seconds", "h", Seconds)
	assertZeroAllocs(t, "Counter.Add disabled", func() { c.Add(1) })
	assertZeroAllocs(t, "Histogram.Observe disabled", func() { h.Observe(12345) })
	assertZeroAllocs(t, "Clock disabled", func() {
		if Clock() != 0 {
			t.Fatal("Clock nonzero while disabled")
		}
	})
}

func TestSpanZeroAllocsDisarmed(t *testing.T) {
	if Tracing() {
		t.Fatal("tracer unexpectedly armed")
	}
	assertZeroAllocs(t, "StartRegion/EndArgs disarmed", func() {
		StartRegion("step", "session").EndArgs()
	})
}
