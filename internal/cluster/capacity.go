package cluster

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/obs"
	"repro/internal/workload"
)

// The cluster saturation analyzer: fold per-cluster-size fdaload -ramp
// reports into one capacity report. Each input series is a ramp driven
// through fdagate against N replicas sharing one store; the analyzer
// extracts each series' saturation knee, peak achieved throughput,
// rejection rate and (when replica telemetry snapshots are supplied)
// worst queue-wait p99, and expresses scaling as speedup over the
// smallest series. The output has the BENCH_PR*.json shape — BENCH_PR10.json
// is one of these — so existing tooling reads the throughput series
// unchanged.

// CapacitySeries is one measured throughput series: a fdaload -ramp
// report captured against a cluster of Replicas fdaserve processes.
type CapacitySeries struct {
	Replicas int             `json:"replicas"`
	Report   workload.Report `json:"report"`
	// Snaps optionally carries each replica's /v1/metrics telemetry
	// snapshot taken after the ramp; the analyzer mines them for the
	// fdaserve_job_queue_wait_seconds p99.
	Snaps []obs.Snap `json:"-"`
}

// CapacitySummary is one series' distilled capacity figures.
type CapacitySummary struct {
	Replicas int `json:"replicas"`
	// SaturationRPS is the offered rate at the series' knee — the
	// highest ramp level sustained with ≥90% achieved throughput and
	// zero errors (workload.Knee).
	SaturationRPS float64 `json:"saturation_rps"`
	// PeakAchievedRPS is the best achieved throughput at any level,
	// sustained or not.
	PeakAchievedRPS float64 `json:"peak_achieved_rps"`
	// Speedup is SaturationRPS over the baseline series'. The baseline
	// (smallest replica count, normally 1) reports 1.
	Speedup float64 `json:"speedup"`
	// Issued/OK/Rejected/Errors total the whole ramp. Rejections are
	// shed load (503 + Retry-After) — the overload design degrades with
	// rejections, never with timeouts or errors.
	Issued        int64   `json:"issued"`
	OK            int64   `json:"ok"`
	Rejected      int64   `json:"rejected"`
	Errors        int64   `json:"errors"`
	RejectionRate float64 `json:"rejection_rate"`
	// QueueWaitP99Ms is the worst per-replica job queue-wait p99 across
	// the supplied telemetry snapshots (0 when none were supplied).
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms,omitempty"`
}

// CapacityReport is the analyzer's output document. The
// goos/goarch/env/benchmarks keys are workload.Report's (one benchmark per
// series, op "Cluster/replicas=N"), so BENCH_*.json tooling consumes it
// unchanged; Series carries the same figures in a typed shape.
type CapacityReport struct {
	GoOS       string               `json:"goos,omitempty"`
	GoArch     string               `json:"goarch,omitempty"`
	Env        workload.Env         `json:"env"`
	Series     []CapacitySummary    `json:"series"`
	Benchmarks []workload.Benchmark `json:"benchmarks"`
}

// BuildCapacityReport assembles the capacity report from one or more
// ramp series. Series are ordered by replica count; the smallest is the
// speedup baseline. Errors when no series is given or a replica count
// repeats.
func BuildCapacityReport(series []CapacitySeries) (CapacityReport, error) {
	if len(series) == 0 {
		return CapacityReport{}, fmt.Errorf("no capacity series")
	}
	ordered := append([]CapacitySeries(nil), series...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Replicas < ordered[j].Replicas })
	for i, s := range ordered {
		if s.Replicas <= 0 {
			return CapacityReport{}, fmt.Errorf("series %d: replica count must be positive, got %d", i, s.Replicas)
		}
		if i > 0 && ordered[i-1].Replicas == s.Replicas {
			return CapacityReport{}, fmt.Errorf("duplicate series for %d replicas", s.Replicas)
		}
	}

	rep := CapacityReport{
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Env: workload.EnvMeta(),
	}
	var baseline float64
	for i, s := range ordered {
		sum := summarize(s)
		if i == 0 {
			baseline = sum.SaturationRPS
		}
		if baseline > 0 {
			sum.Speedup = sum.SaturationRPS / baseline
		}
		rep.Series = append(rep.Series, sum)
		rep.Benchmarks = append(rep.Benchmarks, workload.Benchmark{
			Op:         fmt.Sprintf("Cluster/replicas=%d", sum.Replicas),
			Iterations: sum.Issued,
			Metrics: map[string]float64{
				"saturation_rps":    sum.SaturationRPS,
				"peak_achieved_rps": sum.PeakAchievedRPS,
				"speedup":           sum.Speedup,
				"rejection_rate":    sum.RejectionRate,
				"queue_wait_p99_ms": sum.QueueWaitP99Ms,
				"ok":                float64(sum.OK),
				"rejected":          float64(sum.Rejected),
				"errors":            float64(sum.Errors),
			},
		})
	}
	return rep, nil
}

// summarize distills one series: knee, peak, ramp-wide totals, and the
// worst replica queue-wait p99.
func summarize(s CapacitySeries) CapacitySummary {
	sum := CapacitySummary{
		Replicas:       s.Replicas,
		SaturationRPS:  s.Report.SaturationRPS,
		QueueWaitP99Ms: QueueWaitP99Ms(s.Snaps...),
	}
	if len(s.Report.Ramp) > 0 {
		if sum.SaturationRPS == 0 {
			if k := workload.Knee(s.Report.Ramp); k >= 0 {
				sum.SaturationRPS = s.Report.Ramp[k].OfferedRPS
			}
		}
		for _, l := range s.Report.Ramp {
			sum.Issued += l.Stats.Issued
			sum.OK += l.Stats.OK
			sum.Rejected += l.Stats.Rejected
			sum.Errors += l.Stats.Errors
			if l.Stats.AchievedRPS > sum.PeakAchievedRPS {
				sum.PeakAchievedRPS = l.Stats.AchievedRPS
			}
		}
	} else {
		st := s.Report.Load
		sum.Issued, sum.OK, sum.Rejected, sum.Errors = st.Issued, st.OK, st.Rejected, st.Errors
		sum.PeakAchievedRPS = st.AchievedRPS
	}
	if sum.Issued > 0 {
		sum.RejectionRate = float64(sum.Rejected) / float64(sum.Issued)
	}
	return sum
}

// QueueWaitP99Ms returns the worst fdaserve_job_queue_wait_seconds p99
// across the given telemetry snapshots, in milliseconds (0 when absent:
// the queue-wait histogram reports seconds — obs.Seconds scale).
func QueueWaitP99Ms(snaps ...obs.Snap) float64 {
	var worst float64
	for _, s := range snaps {
		for _, h := range s.Histograms {
			if h.Name == "fdaserve_job_queue_wait_seconds" && h.P99*1e3 > worst {
				worst = h.P99 * 1e3
			}
		}
	}
	return worst
}
