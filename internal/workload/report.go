package workload

import (
	"runtime"
	"runtime/debug"
)

// The report emitted by fdaload is a superset of the committed
// BENCH_PR*.json report shape: the goos/goarch/env/benchmarks keys
// match field for field, so tooling that reads those series consumes a
// load report unchanged, and the load-specific sections
// (spec, load, ramp) ride alongside.

// Benchmark is the BENCH_PR*.json per-result object.
type Benchmark struct {
	Op          string             `json:"op"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Env is the BENCH_PR*.json environment block.
type Env struct {
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// RampLevel is one rung of a ramp run: a fixed offered rate and the
// stats the server sustained under it.
type RampLevel struct {
	OfferedRPS float64 `json:"offered_rps"`
	// RejectionRate is the level's shed-load fraction
	// (rejected/issued) — 503s are graceful degradation, tracked apart
	// from errors so capacity gates can bound them separately.
	RejectionRate float64  `json:"rejection_rate"`
	Stats         RunStats `json:"stats"`
}

// NewRampLevel builds one ramp rung, deriving the rejection rate.
func NewRampLevel(offered float64, stats RunStats) RampLevel {
	l := RampLevel{OfferedRPS: offered, Stats: stats}
	if stats.Issued > 0 {
		l.RejectionRate = float64(stats.Rejected) / float64(stats.Issued)
	}
	return l
}

// Report is fdaload's JSON output document.
type Report struct {
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	Env    Env    `json:"env"`
	// Spec echoes the generated workload (nil for trace replays).
	Spec *Spec `json:"spec,omitempty"`
	// Trace names the replayed trace source, when replaying.
	Trace string `json:"trace,omitempty"`
	// Load is the run's aggregate statistics (the last level's, in
	// ramp mode).
	Load RunStats `json:"load"`
	// Ramp holds the per-level series of a ramp run, and
	// SaturationRPS the located knee: the highest offered rate the
	// server sustained (see Knee).
	Ramp          []RampLevel `json:"ramp,omitempty"`
	SaturationRPS float64     `json:"saturation_rps,omitempty"`
	Benchmarks    []Benchmark `json:"benchmarks"`
}

// EnvMeta samples the running process's environment (also used by
// cluster.BuildCapacityReport).
func EnvMeta() Env {
	e := Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.VCSRevision = s.Value
			case "vcs.modified":
				e.VCSModified = s.Value == "true"
			}
		}
	}
	return e
}

// BuildReport assembles the output document: env metadata, the raw
// stats, and one Benchmark entry per request kind
// (ns_per_op = mean latency; p50/p95/p99/rps/errors as custom
// metrics) plus a Load/total rollup.
func BuildReport(spec *Spec, stats RunStats, ramp []RampLevel) Report {
	rep := Report{
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Env:  EnvMeta(),
		Spec: spec,
		Load: stats,
		Ramp: ramp,
	}
	for _, ks := range stats.Kinds {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{
			Op:         "Load/" + string(ks.Kind),
			Iterations: ks.Issued,
			NsPerOp:    ks.MeanMs * 1e6,
			Metrics: map[string]float64{
				"p50_ms":   ks.P50Ms,
				"p95_ms":   ks.P95Ms,
				"p99_ms":   ks.P99Ms,
				"ok":       float64(ks.OK),
				"rejected": float64(ks.Rejected),
				"errors":   float64(ks.Errors),
			},
		})
	}
	total := Benchmark{
		Op:         "Load/total",
		Iterations: stats.Issued,
		Metrics: map[string]float64{
			"offered_rps":   stats.OfferedRPS,
			"achieved_rps":  stats.AchievedRPS,
			"max_in_flight": float64(stats.MaxInFlight),
			"rejected":      float64(stats.Rejected),
			"errors":        float64(stats.Errors),
		},
	}
	if stats.Issued > 0 {
		total.NsPerOp = stats.DurationSec * 1e9 / float64(stats.Issued)
	}
	rep.Benchmarks = append(rep.Benchmarks, total)
	if len(ramp) > 0 {
		if k := Knee(ramp); k >= 0 {
			rep.SaturationRPS = ramp[k].OfferedRPS
		}
	}
	return rep
}

// Knee locates the saturation knee of a ramp series: the last level
// that still sustains its offered rate — achieved throughput within
// 90% of offered and zero unexpected errors — before the first level
// that does not. Returns -1 when even the first level buckles.
func Knee(levels []RampLevel) int {
	knee := -1
	for i, l := range levels {
		if !sustains(l) {
			return knee
		}
		knee = i
	}
	return knee
}

func sustains(l RampLevel) bool {
	return l.Stats.Errors == 0 && l.Stats.AchievedRPS >= 0.9*l.OfferedRPS
}
