package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest value with at least q·n of the sample at or below it. It
// always returns a measured value, never an interpolation, so a quiet
// segment's number is reported exactly as it was timed. xs is not
// modified. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.50) }

// quietShare is the share of a run's segments the estimators treat as
// undisturbed. Interference from neighbours only ever adds time, and on
// the shared reference box it touches most segments of most runs (inside
// one run the fastest segment can be 14 % under the lower quartile), so
// the estimate of what the code costs is read at the quiet decile, not
// at the median or the quartile: the nearest-rank 10th percentile of
// times, the 90th of rates. With ten segments or fewer that is the best
// one.
const quietShare = 0.10

// quietLow estimates a time (lower is quieter); quietHigh a rate.
func quietLow(xs []float64) float64  { return quantile(xs, quietShare) }
func quietHigh(xs []float64) float64 { return quantile(xs, 1-quietShare) }

// tailLadder lists the percentiles a latency tail may be reported at.
var tailLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// tailPercentile returns the highest ladder percentile that still has
// at least ten of n samples beyond it (choosing-metrics §1); below
// twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// pyQuartiles reproduces Python's statistics.quantiles(values, n=4)
// (the "exclusive" method) — the estimator the PR driver applies to a
// set of runs, so `compare` and `noise` judge spreads the same way.
// It needs at least two values.
func pyQuartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// segment is one equal-work slice of a timed phase.
type segment struct {
	// wallSec is the segment's wall-clock duration.
	wallSec float64
	// samples is the training samples delivered inside it.
	samples int64
	// opMs holds the latency of every unit op completed inside it.
	opMs []float64
}

// segmentCount sizes a timed phase: how many segments of nominal
// length segSec fill the requested seconds, never fewer than min. The
// work is then fixed by the count — a run measures a fixed number of
// steps or ops, not a deadline — so counts repeat exactly.
func segmentCount(seconds, segSec float64, min int) int {
	n := int(math.Round(seconds / segSec))
	if n < min {
		n = min
	}
	return n
}

// phaseSummary condenses a timed phase into the end-to-end estimators.
type phaseSummary struct {
	// samplesPerSec is the quiet-decile rate across segments of samples
	// per wall second; with equal-work segments this is samples per
	// segment ÷ the quiet-decile segment time.
	samplesPerSec float64
	// opP50Ms is the quiet decile, across segments, of each segment's
	// median op latency.
	opP50Ms float64
	// wallSamplesPerSec is total samples ÷ total wall time: the
	// throughput a bystander with a stopwatch sees, noise included.
	wallSamplesPerSec float64
	// tailPct/tailMs report the raw latency tail over all ops at the
	// highest percentile the sample supports.
	tailPct, tailMs float64
	ops             int
	wallSec         float64
}

func summarizePhase(segs []segment) phaseSummary {
	var out phaseSummary
	var rates, medians, all []float64
	var samples int64
	for _, s := range segs {
		if s.wallSec > 0 {
			rates = append(rates, float64(s.samples)/s.wallSec)
		}
		if len(s.opMs) > 0 {
			medians = append(medians, median(s.opMs))
		}
		all = append(all, s.opMs...)
		samples += s.samples
		out.wallSec += s.wallSec
	}
	out.samplesPerSec = quietHigh(rates)
	out.opP50Ms = quietLow(medians)
	if out.wallSec > 0 {
		out.wallSamplesPerSec = float64(samples) / out.wallSec
	}
	out.ops = len(all)
	out.tailPct = tailPercentile(len(all))
	out.tailMs = quantile(all, out.tailPct)
	return out
}

func segmentWalls(segs []segment) []float64 {
	w := make([]float64, len(segs))
	for i, s := range segs {
		w[i] = s.wallSec
	}
	return w
}

// fiveNumbers renders min/q1/median/q3/max (nearest rank) of xs.
func fiveNumbers(xs []float64) string {
	return fmt.Sprintf("%.3f/%.3f/%.3f/%.3f/%.3f",
		quantile(xs, 1e-9), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
}
