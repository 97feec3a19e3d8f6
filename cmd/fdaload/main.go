// Command fdaload drives shaped, deterministic load against a running
// fdaserve (DESIGN.md §13): it expands a declarative workload spec file
// — arrival process × job mix × duration × seed — into a bit-identical
// request schedule, executes it open-loop with bounded in-flight
// concurrency, and emits a JSON report with per-kind latency
// percentiles, throughput, error and rejection counts. It can also
// replay a trace recorded by `fdaserve -record`.
//
//	# a spec file (grammar in DESIGN.md §13; examples in docs/workloads)
//	fdaload -addr http://localhost:8080 -spec docs/workloads/poisson.json -out report.json
//
//	# replay a recorded trace bit-identically
//	fdaload -addr http://localhost:8080 -replay trace.jsonl -out report.json
//
// The schedule (arrival offsets, kinds, payload bytes) is a pure
// function of the spec; -export writes it as a tracev1 file without
// touching the server, which is how the schedule-parity tests pin
// bit-identical generation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/buildinfo"
	"repro/internal/clock"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "base URL of the server under load: one fdaserve, or an fdagate in front of several")
		specFile = flag.String("spec", "", "workload spec file (JSON, decoded strictly; DESIGN.md §13)")
		replay   = flag.String("replay", "", "replay a recorded tracev1 file instead of generating a schedule")
		export   = flag.String("export", "", "with -spec: write the generated schedule as a tracev1 file and exit (no server needed)")

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
	reqs, spec, trace, err := source(*specFile, *replay)
	if err != nil {
		fatal(err)
	}
	if *export != "" {
		if spec == nil {
			fatal(errors.New("-export writes a generated schedule; it needs -spec, not -replay"))
		}
		if err := exportSchedule(reqs, *export, clk); err != nil {
			fatal(err)
		}
		fmt.Printf("fdaload: wrote schedule %s\n", *export)
		return
	}
	var durationNS int64
	if spec != nil {
		durationNS = int64(spec.DurationSec * 1e9)
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

// run executes one schedule against the server named by addr,
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

// source resolves what to issue from exactly one of a spec file and a
// recorded trace: the spec's schedule and the spec, or the trace's
// requests and its name.
func source(specFile, replay string) ([]workload.Request, *workload.Spec, string, error) {
	if (specFile == "") == (replay == "") {
		return nil, nil, "", errors.New("give exactly one of -spec FILE (generate a schedule) and -replay FILE (replay a trace)")
	}
	if replay != "" {
		reqs, trace, err := loadTrace(replay)
		return reqs, nil, trace, err
	}
	f, err := os.Open(specFile)
	if err != nil {
		return nil, nil, "", err
	}
	defer f.Close()
	spec, err := workload.ParseSpec(f)
	if err != nil {
		return nil, nil, "", fmt.Errorf("%s: %w", specFile, err)
	}
	reqs, err := spec.Schedule()
	return reqs, &spec, "", err
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

func exportSchedule(reqs []workload.Request, path string, clk clock.Clock) error {
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
