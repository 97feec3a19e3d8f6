package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// comparison is one row: one workload × one end-to-end metric, a
// baseline set of runs against a candidate set.
type comparison struct {
	Workload, Metric, Unit string
	Bound                  float64
	// A* describe the baseline, B* the candidate: median and quartiles
	// as Python's statistics.quantiles(values, n=4) gives them.
	AQ1, AMed, AQ3 float64
	BQ1, BMed, BQ3 float64
	NA, NB         int
	// Worse is the share of the baseline median by which the candidate
	// median is worse (negative: better), sign following the metric's
	// direction.
	Worse float64
	// Spread is the wider of the two sets' (q3 − q1) / median.
	Spread  float64
	Verdict string // better, within, worse, unresolved
	// countsChanged is the number of seeds whose exact counts differ
	// between the sets (reported once per workload, on its first row).
	countsChanged int
	countsSeeds   int
}

// judge fills a row's statistics and verdict from the two sets' values
// by the rule of choosing-metrics §6: a set that wins or loses every
// single pairing is resolved whatever the spread; otherwise a spread
// wider than the bound leaves the metric unresolved; otherwise the
// medians decide against the bound.
func (r *comparison) judge(a, b []float64, lowerIsBetter bool) {
	r.NA, r.NB = len(a), len(b)
	r.AQ1, r.AMed, r.AQ3 = pyQuartiles(a)
	r.BQ1, r.BMed, r.BQ3 = pyQuartiles(b)
	if r.AMed != 0 {
		r.Worse = (r.BMed - r.AMed) / r.AMed
		r.Spread = math.Abs((r.AQ3 - r.AQ1) / r.AMed)
	}
	if !lowerIsBetter {
		r.Worse = -r.Worse
	}
	if r.BMed != 0 {
		r.Spread = max(r.Spread, math.Abs((r.BQ3-r.BQ1)/r.BMed))
	}
	allBetter, allWorse := slices.Max(b) < slices.Min(a), slices.Min(b) > slices.Max(a)
	if !lowerIsBetter {
		allBetter, allWorse = allWorse, allBetter
	}
	switch {
	case allBetter:
		r.Verdict = "better"
	case allWorse && r.Worse > r.Bound:
		r.Verdict = "worse"
	case r.Spread > r.Bound:
		r.Verdict = "unresolved"
	case r.Worse > r.Bound:
		r.Verdict = "worse"
	case r.Worse < -r.Bound:
		r.Verdict = "better"
	default:
		r.Verdict = "within"
	}
}

// compareRuns builds one row per workload × end-to-end metric from the
// untraced runs of two sets.
func compareRuns(a, b []runRecord) []comparison {
	type key struct{ workload, metric string }
	collect := func(recs []runRecord) (map[key][]float64, map[string]map[uint64]map[string]float64) {
		vals := map[key][]float64{}
		counts := map[string]map[uint64]map[string]float64{}
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			for name, m := range r.Metrics {
				vals[key{r.Workload, name}] = append(vals[key{r.Workload, name}], m.Value)
			}
			if counts[r.Workload] == nil {
				counts[r.Workload] = map[uint64]map[string]float64{}
			}
			counts[r.Workload][r.Seed] = r.Counts
		}
		return vals, counts
	}
	av, ac := collect(a)
	bv, bc := collect(b)
	var rows []comparison
	for _, w := range workloads {
		first := true
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			if len(av[k]) == 0 || len(bv[k]) == 0 {
				continue
			}
			row := comparison{Workload: w.name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound}
			row.judge(av[k], bv[k], d.Better == "lower")
			if first {
				first = false
				for seed, mine := range ac[w.name] {
					other, ok := bc[w.name][seed]
					if !ok {
						continue
					}
					row.countsSeeds++
					for name, v := range mine {
						if ov, ok := other[name]; ok && ov != v {
							row.countsChanged++
							break
						}
					}
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-14s %-14s %-4s %30s %30s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "baseline q1/median/q3 (n)", "candidate q1/median/q3 (n)", "worse%", "spread%", "bound%", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-14s %-4s %30s %30s %+8.2f %7.2f %6.1f  %s\n",
			r.Workload, r.Metric, r.Unit,
			fmt.Sprintf("%.5g/%.5g/%.5g (%d)", r.AQ1, r.AMed, r.AQ3, r.NA),
			fmt.Sprintf("%.5g/%.5g/%.5g (%d)", r.BQ1, r.BMed, r.BQ3, r.NB),
			100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.countsSeeds > 0 {
			state := "repeat exactly"
			if r.countsChanged > 0 {
				state = fmt.Sprintf("DIFFER on %d seed(s)", r.countsChanged)
			}
			fmt.Fprintf(w, "%-14s counts (comm_bytes_per_sample, samples, comm_bytes) on %d shared seed(s): %s\n",
				r.Workload, r.countsSeeds, state)
		}
	}
}

// compareMain implements `compare a.json b.json`: a is the baseline,
// b the candidate. It exits 1 when any metric is worse beyond its
// bound or an exact count changed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare baseline.json candidate.json")
		return 2
	}
	a, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 1
	}
	b, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 1
	}
	rows := compareRuns(a, b)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark compare: the two files share no workload × metric")
		return 1
	}
	printComparison(os.Stdout, rows)
	for _, r := range rows {
		if r.Verdict == "worse" || r.countsChanged > 0 {
			return 1
		}
	}
	return 0
}
