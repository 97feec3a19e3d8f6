// Command benchmark is the repository's one benchmark (BENCHMARK.json):
// five long closed-loop workloads over the training core, the TCP
// fabric, the run registry and the serving tier, with end-to-end
// estimators built to repeat on a shared 2-core box and a per-layer
// table timed from outside the program. See README.md in this
// directory.
//
// Usage (from the repository root):
//
//	go run -C benchmark . --workload W --seed N --seconds S --trace 0|1
//	go run -C benchmark . -seed N [-trace 1] [-out runs.json]   every workload, each in a child process
//	go run -C benchmark . compare a.json b.json
//	go run -C benchmark . noise -sets 2 -runs 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "noise":
			return noiseMain(ctx, args[1:])
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload in this process and print the result object; empty runs every workload, each in a child process")
		seed    = fs.Uint64("seed", 1, "derives every dataset, job and sweep seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", defaultSeconds, "length of the timed phase; converted to a fixed number of equal-work segments")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
		runs    = fs.Int("runs", 1, "all-workloads mode: repeat with seeds seed, seed+1, …")
		outPath = fs.String("out", "", "all-workloads mode: also write every run's result to this JSON file (input of compare)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *name == "" {
		return runAllMain(ctx, *seed, *seconds, *trace == 1, *runs, *outPath)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(ctx, root, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res.print(os.Stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a workload run prints as its last line of
// standard output: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Diagnostics, printed above the result line, never part of it.
	workload string
	refused  int
	faults   []string
	notes    []string
	// counts are exact, seed-determined counts, printed one per line for
	// the all-workloads mode to collect.
	counts map[string]float64
}

func (r *result) print(w *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range r.faults {
		fmt.Fprintln(w, "FAULT:", f)
	}
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if m, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-14s %-32s %16.6g %s\n", r.workload, d.Name, m.Value, m.Unit)
			}
		}
	}
	for _, name := range []string{"comm_bytes_per_sample", "samples", "comm_bytes"} {
		if v, ok := r.counts[name]; ok {
			fmt.Fprintf(w, "%s%s %s %s\n", countLinePrefix, r.workload, name, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	fmt.Fprintf(w, "%-14s ops attempted=%d failed=%d refused=%d correct=%v\n",
		r.workload, r.Attempted, r.Failed, r.refused, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runWorkload performs one invocation of one workload in this process:
// the untraced pass that yields the end-to-end metrics, or — with
// traced — a shorter pass with the decorators installed that yields
// the per-layer metrics and the tracing overhead.
func runWorkload(ctx context.Context, root string, w workload, seed uint64, seconds float64, traced bool) (*result, error) {
	rc := runConfig{root: root, seed: seed, scale: 1, bootSec: sinceSec(processStart)}
	rc.segs = segmentCount(seconds, w.segSec, w.minSegs)
	res := &result{workload: w.name, Metrics: map[string]metricValue{}}

	if !traced {
		rc.setups = 3
		out, err := w.run(ctx, rc)
		if err != nil {
			return nil, err
		}
		sum := summarizePhase(out.segs)
		rss, err := selfPeakRSSMB()
		if err != nil {
			return nil, err
		}
		values := map[string]float64{
			"setup_s":       quietLow(out.setupSec),
			"samples_per_s": sum.samplesPerSec,
			"op_p50_ms":     sum.opP50Ms,
			"peak_rss_mb":   rss + out.childRSSMB,
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		res.fill(out)
		res.notes = append(res.notes,
			fmt.Sprintf("%s: op = %s", w.name, w.op),
			fmt.Sprintf("%s: %d segments, timed phase %.2f s, segment wall min/q1/median/q3/max = %s s, set-ups %.3f s",
				w.name, len(out.segs), sum.wallSec, fiveNumbers(segmentWalls(out.segs)), out.setupSec),
			fmt.Sprintf("%s: ungated diagnostics: samples_per_s_wall=%.6g op_p%g_ms=%.6g over %d ops",
				w.name, sum.wallSamplesPerSec, 100*sum.tailPct, sum.tailMs, sum.ops))
		return res, nil
	}

	// Traced invocation: two thirds of the segments (the probes need the
	// rest of the run's budget), alternating recording off and on. The
	// decorators are installed for all of them; switched off they cost one
	// atomic load per call. Off and on segments interleave, so both see
	// the same drift of the machine, and the difference between their
	// throughputs is the tracing overhead.
	rc.setups = 1
	rc.segs = max(2, (rc.segs*2/3+1)&^1)
	rc.tr = newTracer()
	out, err := w.run(ctx, rc)
	if err != nil {
		return nil, err
	}
	spans := rc.tr.all()
	tracePath := filepath.Join(root, "benchmark", "out", w.name+".trace.json")
	if err := writeChromeTrace(tracePath, spans); err != nil {
		return nil, err
	}
	var off, on []segment
	for i, s := range out.segs {
		if i%2 == 1 {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	base, sum := summarizePhase(off), summarizePhase(on)
	out.setLayer("trace.overhead_share", 1-sum.samplesPerSec/base.samplesPerSec)
	out.setLayer("comm.bytes_per_sample", float64(out.commBytes)/float64(out.samples))
	out.setLayer("e2e.samples_per_s_wall", sum.wallSamplesPerSec)
	out.setLayer("e2e.op_tail_ms", sum.tailMs)
	out.setLayer("e2e.op_tail_pct", 100*sum.tailPct)
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{out.layer[d.Name], d.Unit}
	}
	res.fill(out)
	res.notes = append(res.notes, fmt.Sprintf("%s: %d segments (odd ones recorded), %d spans written to %s",
		w.name, len(out.segs), len(spans), tracePath))
	return res, nil
}

// fill copies a pass's op counts and correctness verdict.
func (r *result) fill(out *outcome) {
	r.Attempted = out.attempted
	r.Failed = out.failed
	r.refused = out.refused
	r.faults = out.faults
	r.Correct = len(out.faults) == 0 && out.failed == 0 && out.attempted > 0
	if out.samples > 0 {
		r.counts = map[string]float64{
			"comm_bytes_per_sample": float64(out.commBytes) / float64(out.samples),
			"samples":               float64(out.samples),
			"comm_bytes":            float64(out.commBytes),
		}
	}
}
