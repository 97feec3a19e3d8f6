package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// desc identifies one metric: a Prometheus-style name plus an optional
// label set, rendered once at registration so exposition and hot paths
// never re-format.
type desc struct {
	name   string
	help   string
	labels []string // alternating key, value
	// rendered is `{k="v",...}` (escaped) or "" for label-less metrics.
	rendered string
}

func newDesc(name, help string, labels []string) desc {
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key/value pairs: " + name)
	}
	d := desc{name: name, help: help, labels: labels}
	if len(labels) > 0 {
		var b strings.Builder
		b.WriteByte('{')
		for i := 0; i < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(labels[i])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labels[i+1]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
		d.rendered = b.String()
	}
	return d
}

// escapeLabel applies the Prometheus text-format label escaping rules.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (d desc) labelMap() map[string]string {
	if len(d.labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(d.labels)/2)
	for i := 0; i < len(d.labels); i += 2 {
		m[d.labels[i]] = d.labels[i+1]
	}
	return m
}

// Counter is a monotonically increasing count. Add is one atomic add
// behind the global enable gate — zero allocation, no locks.
type Counter struct {
	v atomic.Int64
	d desc
}

// Add increments the counter by n (dropped while telemetry is off).
//
//fda:noalloc
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (float64).
type Gauge struct {
	v atomic.Uint64 // float64 bits
	d desc
}

// Set records the gauge's current value (dropped while telemetry is off).
//
//fda:noalloc
func (g *Gauge) Set(v float64) {
	if enabled.Load() {
		g.v.Store(math.Float64bits(v))
	}
}

// Value returns the last set value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. the power-of-two
// range [2^(i-1), 2^i). Non-positive observations land in bucket 0.
// The scheme (DESIGN.md §11) trades resolution — every estimate is
// exact to within a factor of two — for an O(1), division-free,
// allocation-free Observe: one bits.Len64 and two atomic adds.
const histBuckets = 65

// Histogram is a fixed-bucket distribution over int64 observations in
// a raw unit (nanoseconds, bytes). Scale converts raw units to the
// exposed base unit (1e9 for ns→seconds, 1 for bytes) at readout time,
// so the hot path stays in integers.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	scale  float64
	d      desc
}

// Observe records one raw-unit observation (dropped while telemetry is
// off). It is safe for concurrent use and never allocates.
//
//fda:noalloc
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Since records the elapsed nanoseconds from a start stamp obtained via
// obs.Clock. A zero start means telemetry was off at the start of the
// section; the observation is dropped so intervals never mix clocks.
//
//fda:noalloc
func (h *Histogram) Since(start int64) {
	if start == 0 || !enabled.Load() {
		return
	}
	h.observe(clockNow() - start)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the observation total in the exposed base unit.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / h.scale }

// Quantile returns the p-quantile (0 < p ≤ 1) in the exposed base
// unit: the upper bound of the bucket containing the quantile rank,
// i.e. an overestimate by at most 2×. With no observations it is 0.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return h.bucketUpper(i)
		}
	}
	return h.bucketUpper(histBuckets - 1)
}

// bucketUpper returns bucket i's inclusive upper bound in base units.
func (h *Histogram) bucketUpper(i int) float64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxInt64 / h.scale
	}
	return float64(uint64(1)<<i-1) / h.scale
}

// Registry holds the process's metrics. Metrics are registered once
// (idempotently) and resolved to pointers at instrumentation setup, so
// steady-state updates touch only the metric's own atomics.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]any
	metrics []any // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]any{}}
}

// Default is the process-wide registry every built-in instrumentation
// point registers into.
var Default = NewRegistry()

func (r *Registry) lookup(d desc, build func() any) any {
	key := d.name + d.rendered
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		return m
	}
	m := build()
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or returns the existing) counter with the given
// name and alternating label key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	d := newDesc(name, help, labels)
	m := r.lookup(d, func() any { return &Counter{d: d} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %s%s already registered as %T", d.name, d.rendered, m))
	}
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	d := newDesc(name, help, labels)
	m := r.lookup(d, func() any { return &Gauge{d: d} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %s%s already registered as %T", d.name, d.rendered, m))
	}
	return g
}

// Histogram registers (or returns the existing) histogram. scale
// converts raw observation units into the exposed base unit — use
// obs.Seconds for nanosecond timings, 1 for values exposed as-is.
func (r *Registry) Histogram(name, help string, scale float64, labels ...string) *Histogram {
	if scale <= 0 {
		panic("obs: histogram scale must be positive: " + name)
	}
	d := newDesc(name, help, labels)
	m := r.lookup(d, func() any { return &Histogram{scale: scale, d: d} })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %s%s already registered as %T", d.name, d.rendered, m))
	}
	if h.scale != scale {
		panic(fmt.Sprintf("obs: %s%s re-registered with scale %g != %g", d.name, d.rendered, scale, h.scale))
	}
	return h
}

// Seconds is the histogram scale (the raw→base-unit divisor) for
// nanosecond observations.
const Seconds = 1e9

// sorted returns the registry's metrics ordered by (name, labels) so
// exposition and snapshots are deterministic and grouped by family.
func (r *Registry) sorted() []any {
	r.mu.Lock()
	out := make([]any, len(r.metrics))
	copy(out, r.metrics)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := descOf(out[i]), descOf(out[j])
		if di.name != dj.name {
			return di.name < dj.name
		}
		return di.rendered < dj.rendered
	})
	return out
}

func descOf(m any) desc {
	switch m := m.(type) {
	case *Counter:
		return m.d
	case *Gauge:
		return m.d
	case *Histogram:
		return m.d
	}
	panic("obs: unknown metric type")
}

// CounterValue is one counter's reading in a Snap.
type CounterValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeValue is one gauge's reading in a Snap.
type GaugeValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramValue is one histogram's summary in a Snap: count, sum and
// the three headline quantiles, all in the metric's base unit.
type HistogramValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    float64           `json:"sum"`
	P50    float64           `json:"p50"`
	P95    float64           `json:"p95"`
	P99    float64           `json:"p99"`
}

// Snap is a point-in-time reading of a registry, ordered by metric
// name — the JSON shape served under /v1/metrics and returned by
// fda.Telemetry.
type Snap struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot reads every registered metric.
func (r *Registry) Snapshot() Snap {
	var s Snap
	for _, m := range r.sorted() {
		switch m := m.(type) {
		case *Counter:
			s.Counters = append(s.Counters, CounterValue{Name: m.d.name, Labels: m.d.labelMap(), Value: m.Value()})
		case *Gauge:
			s.Gauges = append(s.Gauges, GaugeValue{Name: m.d.name, Labels: m.d.labelMap(), Value: m.Value()})
		case *Histogram:
			s.Histograms = append(s.Histograms, HistogramValue{
				Name: m.d.name, Labels: m.d.labelMap(),
				Count: m.Count(), Sum: m.Sum(),
				P50: m.Quantile(0.50), P95: m.Quantile(0.95), P99: m.Quantile(0.99),
			})
		}
	}
	return s
}

// CounterSum sums every counter named name whose labels include the
// given alternating key/value pairs (a convenience for views that
// aggregate one family, e.g. total syncs across strategies).
func (s Snap) CounterSum(name string, labels ...string) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			if c.Labels[labels[i]] != labels[i+1] {
				match = false
				break
			}
		}
		if match {
			total += c.Value
		}
	}
	return total
}
