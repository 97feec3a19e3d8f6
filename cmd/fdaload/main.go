// Command fdaload drives shaped, deterministic load against a running
// fdaserve (DESIGN.md §13): it expands a declarative workload spec —
// arrival process × job mix × duration × seed — into a bit-identical
// request schedule, executes it open-loop with bounded in-flight
// concurrency, and emits a JSON report with per-kind latency
// percentiles, throughput, error and rejection counts. It can also
// replay a trace recorded by `fdaserve -record`.
//
//	# 10s of Poisson traffic at 50 req/s: 1 train per 4 status polls per 1 catalog read
//	fdaload -addr http://localhost:8080 -rate 50 -duration 10s \
//	        -mix train=1,status=4,store=1 -model lenet5s -strategy LinearFDA \
//	        -steps 50 -out report.json
//
//	# full spec file (arrival/mix grammar in DESIGN.md §13)
//	fdaload -addr http://localhost:8080 -spec workload.json -out report.json
//
//	# replay a recorded trace bit-identically
//	fdaload -addr http://localhost:8080 -replay trace.jsonl -out report.json
//
// The schedule (arrival offsets, kinds, payload bytes) is a pure
// function of spec+seed; -export writes it as a tracev1 file without
// touching the server, which is how the schedule-parity tests pin
// bit-identical generation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/clock"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "base URL(s) of the server under load; comma-separated to spread directly across replicas (submissions round-robin, polls follow the submitting replica)")
		specFile = flag.String("spec", "", "workload spec file (JSON); overrides the inline spec flags")
		replay   = flag.String("replay", "", "replay a recorded tracev1 file instead of generating a schedule")
		export   = flag.String("export", "", "write the generated schedule as a tracev1 file and exit (no server needed)")

		arrival  = flag.String("arrival", "poisson", "arrival process: poisson, bursty, diurnal")
		rate     = flag.Float64("rate", 20, "mean arrival rate, requests/second")
		duration = flag.Duration("duration", 10*time.Second, "schedule duration")
		mixFlag  = flag.String("mix", "train=1,status=3,store=1", "job mix as kind=weight pairs (kinds: train, sweep, status, records, store, cancel)")
		onSec    = flag.Float64("on", 1, "bursty: burst length, seconds")
		offSec   = flag.Float64("off", 1, "bursty: silence length, seconds")
		period   = flag.Float64("period", 10, "diurnal: period length, seconds")
		weights  = flag.String("weights", "1,4,1", "diurnal: comma-separated per-window rate multipliers over one period")
		seed     = flag.Uint64("seed", 1, "schedule seed (same spec+seed ⇒ bit-identical schedule)")

		model     = flag.String("model", "lenet5s", "train cohort: zoo model")
		strategy  = flag.String("strategy", "LinearFDA", "train cohort: synchronization strategy")
		steps     = flag.Int("steps", 50, "train cohort: steps per job")
		k         = flag.Int("k", 2, "train cohort: simulated workers per job")
		batch     = flag.Int("batch", 8, "train cohort: batch size")
		evalEvery = flag.Int("eval-every", 0, "train cohort: evaluation cadence (0 = server default)")
		expName   = flag.String("experiment", "fig3", "sweep cohort: experiment name")
		scale     = flag.String("scale", "tiny", "sweep cohort: experiment scale")

		inflight    = flag.Int("inflight", 4096, "max concurrent in-flight requests (open loop; stalls are counted, not hidden)")
		out         = flag.String("out", "", "write the JSON report here (default: stdout)")
		check       = flag.Bool("check", false, "exit non-zero unless the run completed work (ok > 0) with zero unexpected errors")
		maxRejected = flag.Float64("max-rejected", 1, "-check: maximum tolerated rejection rate (rejected/issued, 0..1); 1 allows any amount of shed load")
		version     = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("fdaload"))
		return
	}

	clk := clock.Wall()
	stop := make(chan struct{})
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		close(stop)
	}()

	// What to issue: a recorded trace verbatim, or the schedule a spec
	// generates.
	var (
		reqs       []workload.Request
		spec       *workload.Spec // nil for a replay
		trace      string         // the replayed source, else empty
		durationNS int64
	)
	if *replay != "" {
		var err error
		if reqs, trace, err = loadTrace(*replay); err != nil {
			fatal(err)
		}
	} else {
		sp, err := buildSpec(specArgs{
			specFile: *specFile, arrival: *arrival, rate: *rate, duration: *duration,
			mix: *mixFlag, on: *onSec, off: *offSec, period: *period, weights: *weights,
			seed: *seed, model: *model, strategy: *strategy, steps: *steps, k: *k,
			batch: *batch, evalEvery: *evalEvery, experiment: *expName, scale: *scale,
		})
		if err != nil {
			fatal(err)
		}
		if *export != "" {
			if err := exportSchedule(sp, *export, clk); err != nil {
				fatal(err)
			}
			fmt.Printf("fdaload: wrote schedule %s\n", *export)
			return
		}
		if reqs, err = sp.Schedule(); err != nil {
			fatal(err)
		}
		spec, durationNS = &sp, int64(sp.DurationSec*1e9)
	}
	stats, err := run(reqs, *addr, clk, *inflight, durationNS, stop)
	if err != nil {
		fatal(err)
	}
	rep := workload.BuildReport(spec, stats)
	rep.Trace = trace

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(err)
	}
	summarize(os.Stderr, rep)

	if *check {
		if err := checkReport(rep, *maxRejected); err != nil {
			fmt.Fprintf(os.Stderr, "fdaload: check failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "fdaload: check ok")
	}
}

// run executes one schedule against the server(s) named by addr,
// dispatched and timed by clk.
func run(reqs []workload.Request, addr string, clk clock.Clock, inflight int, durationNS int64, stop <-chan struct{}) (workload.RunStats, error) {
	target, err := workload.NewHTTPTarget(addr)
	if err != nil {
		return workload.RunStats{}, fmt.Errorf("-addr %q: %w", addr, err)
	}
	fmt.Fprintf(os.Stderr, "fdaload: %d requests against %s\n", len(reqs), addr)
	return workload.Run(reqs, target, workload.RunOptions{
		Clock:       clk,
		MaxInFlight: inflight,
		Stop:        stop,
		DurationNS:  durationNS,
	}), nil
}

// specArgs carries the inline-flag spec configuration.
type specArgs struct {
	specFile, arrival, mix, weights    string
	model, strategy, experiment, scale string
	rate, on, off, period              float64
	duration                           time.Duration
	seed                               uint64
	steps, k, batch, evalEvery         int
}

// buildSpec resolves the workload spec: a spec file verbatim, or the
// inline flags assembled into one.
func buildSpec(a specArgs) (workload.Spec, error) {
	if a.specFile != "" {
		b, err := os.ReadFile(a.specFile)
		if err != nil {
			return workload.Spec{}, err
		}
		var spec workload.Spec
		if err := json.Unmarshal(b, &spec); err != nil {
			return workload.Spec{}, fmt.Errorf("parsing %s: %w", a.specFile, err)
		}
		return spec, spec.Validate()
	}
	ws, err := parseFloats(a.weights)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("parsing -weights: %w", err)
	}
	spec := workload.Spec{
		Arrival: workload.Arrival{
			Process: a.arrival, Rate: a.rate,
			OnSec: a.on, OffSec: a.off,
			PeriodSec: a.period, Weights: ws,
		},
		DurationSec: a.duration.Seconds(),
		Seed:        a.seed,
	}
	if a.arrival != "bursty" {
		spec.Arrival.OnSec, spec.Arrival.OffSec = 0, 0
	}
	if a.arrival != "diurnal" {
		spec.Arrival.PeriodSec, spec.Arrival.Weights = 0, nil
	}
	train := &workload.TrainTemplate{
		Model: a.model, Strategy: a.strategy, Steps: a.steps,
		K: a.k, Batch: a.batch, EvalEvery: a.evalEvery, SeedBase: a.seed,
	}
	sweep := &workload.SweepTemplate{Experiment: a.experiment, Scale: a.scale, SeedBase: a.seed}
	for _, part := range strings.Split(a.mix, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return workload.Spec{}, fmt.Errorf("bad -mix entry %q (want kind=weight)", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return workload.Spec{}, fmt.Errorf("bad -mix weight in %q: %w", part, err)
		}
		e := workload.MixEntry{Kind: workload.Kind(kv[0]), Weight: w}
		switch e.Kind {
		case workload.KindTrain:
			e.Train = train
		case workload.KindSweep:
			e.Sweep = sweep
		}
		spec.Mix = append(spec.Mix, e)
	}
	return spec, spec.Validate()
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func loadTrace(path string) ([]workload.Request, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	hdr, reqs, err := workload.ReadTrace(f)
	if err != nil {
		return nil, "", err
	}
	src := path
	if hdr.Source != "" {
		src = path + " (" + hdr.Source + ")"
	}
	return reqs, src, nil
}

func exportSchedule(spec workload.Spec, path string, clk clock.Clock) error {
	reqs, err := spec.Schedule()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	hdr := workload.TraceHeader{Source: "fdaload", CreatedUnix: clk.Now() / 1e9}
	if err := workload.WriteTrace(f, hdr, reqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkReport implements -check, the smoke gate used by CI: completed
// work, zero unexpected errors, and a rejection rate (rejected/issued)
// of at most maxRejected — some shed load is expected at saturation, a
// cluster rejecting most of its traffic is not "sustaining" anything.
func checkReport(rep workload.Report, maxRejected float64) error {
	s := rep.Load
	if s.Errors != 0 {
		return fmt.Errorf("%d unexpected errors", s.Errors)
	}
	if s.OK == 0 {
		return fmt.Errorf("no request completed successfully (throughput is zero)")
	}
	if s.Issued > 0 && maxRejected < 1 {
		if rate := float64(s.Rejected) / float64(s.Issued); rate > maxRejected {
			return fmt.Errorf("rejection rate %.3f exceeds -max-rejected %.3f (%d of %d requests shed)",
				rate, maxRejected, s.Rejected, s.Issued)
		}
	}
	return nil
}

func summarize(w io.Writer, rep workload.Report) {
	s := rep.Load
	fmt.Fprintf(w, "fdaload: %d issued, %d ok, %d rejected, %d conflicts, %d errors in %.2fs (%.1f req/s achieved, max %d in flight)\n",
		s.Issued, s.OK, s.Rejected, s.Conflicts, s.Errors, s.DurationSec, s.AchievedRPS, s.MaxInFlight)
	for _, ks := range s.Kinds {
		fmt.Fprintf(w, "fdaload:   %-8s %5d ok  p50 %8.2fms  p95 %8.2fms  p99 %8.2fms\n",
			ks.Kind, ks.OK, ks.P50Ms, ks.P95Ms, ks.P99Ms)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fdaload:", err)
	os.Exit(1)
}
