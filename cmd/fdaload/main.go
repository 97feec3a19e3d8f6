// Command fdaload drives shaped, deterministic load against a running
// fdaserve (DESIGN.md §13): it expands a declarative workload spec —
// arrival process × job mix × duration × seed — into a bit-identical
// request schedule, executes it open-loop with bounded in-flight
// concurrency, and emits a JSON report with per-kind latency
// percentiles, throughput, error and rejection counts in the
// BENCH_PR*.json report shape. It can also replay a trace recorded by
// `fdaserve -record` and step the arrival rate to locate the
// saturation knee.
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
//	# step 10→160 req/s to find the saturation knee
//	fdaload -addr http://localhost:8080 -ramp 10,20,40,80,160 -duration 5s \
//	        -mix train=1,status=4 -model lenet5s -steps 20 -out ramp.json
//
// The schedule (arrival offsets, kinds, payload bytes) is a pure
// function of spec+seed; -export writes it as a tracev1 file without
// touching the server, which is how the schedule-parity tests pin
// bit-identical generation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/buildinfo"
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
		duration = flag.Duration("duration", 10*time.Second, "schedule duration (per ramp level in -ramp mode)")
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
		rampFlag    = flag.String("ramp", "", "comma-separated offered rates; run -duration at each and locate the saturation knee")
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

	stop := make(chan struct{})
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		close(stop)
	}()

	var rep workload.Report
	switch {
	case *replay != "":
		reqs, src, err := loadTrace(*replay)
		if err != nil {
			fatal(err)
		}
		stats := run(reqs, *addr, *inflight, 0, stop)
		rep = workload.BuildReport(nil, stats, nil)
		rep.Trace = src
	default:
		spec, err := buildSpec(specArgs{
			specFile: *specFile, arrival: *arrival, rate: *rate, duration: *duration,
			mix: *mixFlag, on: *onSec, off: *offSec, period: *period, weights: *weights,
			seed: *seed, model: *model, strategy: *strategy, steps: *steps, k: *k,
			batch: *batch, evalEvery: *evalEvery, experiment: *expName, scale: *scale,
		})
		if err != nil {
			fatal(err)
		}
		if *export != "" {
			if err := exportSchedule(spec, *export); err != nil {
				fatal(err)
			}
			fmt.Printf("fdaload: wrote schedule %s\n", *export)
			return
		}
		if *rampFlag != "" {
			levels, err := parseRates(*rampFlag)
			if err != nil {
				fatal(err)
			}
			var ramp []workload.RampLevel
			for i, r := range levels {
				lv := rampLevelSpec(spec, i)
				lv.Arrival.Rate = r
				reqs, err := lv.Schedule()
				if err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "fdaload: ramp level %d/%d: %g req/s for %gs (%d requests)\n",
					i+1, len(levels), r, lv.DurationSec, len(reqs))
				stats := run(reqs, *addr, *inflight, int64(lv.DurationSec*1e9), stop)
				ramp = append(ramp, workload.NewRampLevel(r, stats))
				if stoppedNow(stop) {
					break
				}
			}
			last := workload.RunStats{}
			if len(ramp) > 0 {
				last = ramp[len(ramp)-1].Stats
			}
			rep = workload.BuildReport(&spec, last, ramp)
		} else {
			reqs, err := spec.Schedule()
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "fdaload: %d requests over %gs against %s\n", len(reqs), spec.DurationSec, *addr)
			stats := run(reqs, *addr, *inflight, int64(spec.DurationSec*1e9), stop)
			rep = workload.BuildReport(&spec, stats, nil)
		}
	}

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

// run executes one schedule against the server(s).
func run(reqs []workload.Request, addr string, inflight int, durationNS int64, stop <-chan struct{}) workload.RunStats {
	target := newHTTPTarget(addr)
	return workload.Run(reqs, target, workload.RunOptions{
		Clock:       newRealClock(),
		MaxInFlight: inflight,
		Stop:        stop,
		DurationNS:  durationNS,
	})
}

// rampLevelSpec derives level i's spec: a fresh schedule seed AND fresh
// cohort seed bases. The templates are deep-copied — they are shared
// pointers inside Mix — and their seed bases shifted far apart per
// level, so every level submits brand-new specs instead of re-hitting
// the previous level's dedupe keys (which would measure cache lookups,
// not admission throughput). Still a pure function of (spec, i):
// ramp runs stay deterministic.
func rampLevelSpec(spec workload.Spec, i int) workload.Spec {
	lv := spec
	lv.Seed = spec.Seed + uint64(i)
	lv.Mix = make([]workload.MixEntry, len(spec.Mix))
	for m, e := range spec.Mix {
		if e.Train != nil {
			t := *e.Train
			t.SeedBase += uint64(i) << 32
			e.Train = &t
		}
		if e.Sweep != nil {
			sw := *e.Sweep
			sw.SeedBase += uint64(i) << 32
			e.Sweep = &sw
		}
		lv.Mix[m] = e
	}
	return lv
}

func stoppedNow(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
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
	ws, err := parseRates(a.weights)
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

func parseRates(s string) ([]float64, error) {
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

func exportSchedule(spec workload.Spec, path string) error {
	reqs, err := spec.Schedule()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	hdr := workload.TraceHeader{Source: "fdaload", CreatedUnix: time.Now().Unix()}
	if err := workload.WriteTrace(f, hdr, reqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkReport implements -check: the smoke gate used by CI. Beyond the
// original zero-errors/nonzero-throughput gate, maxRejected bounds the
// rejection rate (rejected/issued) so a cluster gate can insist on
// graceful degradation — some shed load is expected at saturation, a
// cluster rejecting most of its traffic is not "sustaining" anything.
func checkReport(rep workload.Report, maxRejected float64) error {
	errs := rep.Load.Errors
	ok := rep.Load.OK
	rejected, issued := rep.Load.Rejected, rep.Load.Issued
	for _, l := range rep.Ramp {
		errs += l.Stats.Errors
		ok += l.Stats.OK
		rejected += l.Stats.Rejected
		issued += l.Stats.Issued
	}
	// The single-run report already folds its own totals; ramp levels
	// are distinct runs and accumulate (Load repeats the last level, so
	// subtract it once to avoid double counting).
	if n := len(rep.Ramp); n > 0 {
		errs -= rep.Ramp[n-1].Stats.Errors
		ok -= rep.Ramp[n-1].Stats.OK
		rejected -= rep.Ramp[n-1].Stats.Rejected
		issued -= rep.Ramp[n-1].Stats.Issued
	}
	if errs != 0 {
		return fmt.Errorf("%d unexpected errors", errs)
	}
	if ok == 0 {
		return fmt.Errorf("no request completed successfully (throughput is zero)")
	}
	if issued > 0 && maxRejected < 1 {
		if rate := float64(rejected) / float64(issued); rate > maxRejected {
			return fmt.Errorf("rejection rate %.3f exceeds -max-rejected %.3f (%d of %d requests shed)",
				rate, maxRejected, rejected, issued)
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
	if len(rep.Ramp) > 0 {
		for _, l := range rep.Ramp {
			fmt.Fprintf(w, "fdaload: ramp %7.1f req/s offered -> %7.1f achieved, p99(train) %.2fms, %d rejected (%.1f%%), %d errors\n",
				l.OfferedRPS, l.Stats.AchievedRPS, kindP99(l.Stats, workload.KindTrain), l.Stats.Rejected, 100*l.RejectionRate, l.Stats.Errors)
		}
		if rep.SaturationRPS > 0 {
			fmt.Fprintf(w, "fdaload: saturation knee at %.1f req/s offered\n", rep.SaturationRPS)
		} else {
			fmt.Fprintln(w, "fdaload: no level sustained its offered rate (knee below the first rung)")
		}
	}
}

func kindP99(s workload.RunStats, k workload.Kind) float64 {
	for _, ks := range s.Kinds {
		if ks.Kind == k {
			return ks.P99Ms
		}
	}
	return 0
}

// realClock is the wall-clock implementation of workload.Clock: a
// monotonic nanosecond offset from construction.
type realClock struct {
	epoch time.Time
}

func newRealClock() *realClock { return &realClock{epoch: time.Now()} }

func (c *realClock) Now() int64 { return int64(time.Since(c.epoch)) }

func (c *realClock) WaitUntil(ns int64, stop <-chan struct{}) {
	d := time.Duration(ns - c.Now())
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	}
}

// httpTarget executes requests against the fdaserve (or fdagate) API,
// tracking the job ids its submissions create so poll kinds have real
// targets. With multiple bases (-addr a,b,c) submissions round-robin
// across them and each id remembers its submitting base — replica job
// ids are replica-local, so polls must follow the replica that issued
// them (the gateway namespaces ids itself, so a single gateway base
// needs none of this).
type httpTarget struct {
	bases  []string
	client *http.Client

	mu     sync.Mutex
	ids    []string          // submitted job ids, in creation order
	idBase map[string]string // id -> submitting base URL
	cursor atomic.Uint64
	subSeq atomic.Uint64 // round-robin over bases for submissions
}

func newHTTPTarget(base string) *httpTarget {
	tr := &http.Transport{
		MaxIdleConns:        1 << 14,
		MaxIdleConnsPerHost: 1 << 14,
	}
	var bases []string
	for _, b := range strings.Split(base, ",") {
		if b = strings.TrimRight(strings.TrimSpace(b), "/"); b != "" {
			bases = append(bases, b)
		}
	}
	return &httpTarget{
		bases:  bases,
		idBase: map[string]string{},
		client: &http.Client{Transport: tr, Timeout: 5 * time.Minute},
	}
}

// pickID returns a submitted job id round-robin with the base that owns
// it, or "" when none is known yet (early polls fall back to collection
// endpoints).
func (t *httpTarget) pickID() (id, base string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ids) == 0 {
		return "", ""
	}
	id = t.ids[int(t.cursor.Add(1))%len(t.ids)]
	return id, t.idBase[id]
}

func (t *httpTarget) addID(id, base string) {
	if id == "" {
		return
	}
	t.mu.Lock()
	if _, dup := t.idBase[id]; !dup {
		t.ids = append(t.ids, id)
		t.idBase[id] = base
	}
	t.mu.Unlock()
}

// submitBase picks the next base for a submission (round-robin).
func (t *httpTarget) submitBase() string {
	if len(t.bases) == 1 {
		return t.bases[0]
	}
	return t.bases[int(t.subSeq.Add(1))%len(t.bases)]
}

func (t *httpTarget) Do(req workload.Request) workload.Outcome {
	method, path, base := t.resolve(req)
	var body io.Reader
	if method == http.MethodPost && len(req.Body) > 0 {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequest(method, base+path, body)
	if err != nil {
		return workload.Outcome{Err: err}
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(hr)
	if err != nil {
		return workload.Outcome{Err: err}
	}
	defer resp.Body.Close()
	if method == http.MethodPost && resp.StatusCode < 300 {
		var v struct {
			ID string `json:"id"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&v) == nil {
			t.addID(v.ID, base)
		}
	}
	// Drain so the transport can reuse the connection.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<22))
	return workload.Outcome{Status: resp.StatusCode}
}

// resolve maps a request to its method, URL path and base URL. Recorded
// traces carry explicit paths; generated schedules resolve poll targets
// against the ids this client has created, on the base that created
// them.
func (t *httpTarget) resolve(req workload.Request) (method, path, base string) {
	if req.Path != "" {
		switch req.Kind {
		case workload.KindTrain, workload.KindSweep:
			return http.MethodPost, req.Path, t.submitBase()
		case workload.KindCancel:
			return http.MethodDelete, req.Path, t.submitBase()
		default:
			return http.MethodGet, req.Path, t.submitBase()
		}
	}
	switch req.Kind {
	case workload.KindTrain:
		return http.MethodPost, "/v1/train", t.submitBase()
	case workload.KindSweep:
		return http.MethodPost, "/v1/runs", t.submitBase()
	case workload.KindStatus:
		if id, b := t.pickID(); id != "" {
			return http.MethodGet, "/v1/runs/" + id, b
		}
		return http.MethodGet, "/v1/runs", t.submitBase()
	case workload.KindRecords:
		if id, b := t.pickID(); id != "" {
			return http.MethodGet, "/v1/runs/" + id + "/records", b
		}
		return http.MethodGet, "/v1/store", t.submitBase()
	case workload.KindCancel:
		if id, b := t.pickID(); id != "" {
			return http.MethodDelete, "/v1/runs/" + id, b
		}
		return http.MethodGet, "/v1/runs", t.submitBase()
	default:
		return http.MethodGet, "/v1/store", t.submitBase()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fdaload:", err)
	os.Exit(1)
}
