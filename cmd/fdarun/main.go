// Command fdarun executes a single distributed training run of one zoo
// model under one strategy and prints its communication / computation /
// accuracy summary.
//
// Examples:
//
//	fdarun -model lenet5s -strategy LinearFDA -theta 0.05 -k 10 -target 0.95
//	fdarun -model densenet121s -strategy Synchronous -k 5 -steps 300
//	fdarun -model vgg16s -strategy FedAdam -k 10 -target 0.96
//	fdarun -model lenet5s -strategy LinearFDA -theta 0.05 -het label0
//	fdarun -model lenet5s -strategy SketchFDA -theta 0.05 -async -speeds 1,1,1,0.5,0.25
//	fdarun -model lenet5s -strategy LinearFDA -async -scenario fedwan
//	fdarun -model lenet5s -strategy LinearFDA -progress        # live sync/eval events
//	fdarun -model lenet5s -strategy OracleFDA -store runs.d    # warm start from stored prefixes
//
// The run executes on a pluggable communication fabric:
//
//	fdarun -scenario fedwan ...                 # simulated heterogeneous network,
//	                                            # prints estimated time-to-accuracy
//	fdarun -coordinator :9000 -k 3 ...          # host a multi-process cluster and wait
//	                                            # for 3 workers, then train for real
//	fdarun -worker -connect host:9000           # join as one worker process (rank and
//	                                            # job spec come from the coordinator)
//
// Runs execute as a cancellable session: Ctrl-C stops between steps and
// prints the partial summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"

	"repro/fda"
	"repro/internal/buildinfo"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// The flag surface. The training spec itself is a dist.JobSpec — the
// same definition fdaserve admits and the coordinator ships to workers
// — so a flag means one thing on every path.
var (
	fs       = flag.NewFlagSet("fdarun", flag.ExitOnError)
	spec     dist.JobSpec
	async    = fs.Bool("async", false, "run the asynchronous (coordinator) variant of -strategy LinearFDA or SketchFDA: workers step at their own pace on a virtual clock of compute and link time (-speeds or -scenario; by default one step per second each and free links)")
	speeds   = fs.String("speeds", "", "comma-separated relative worker speeds, one per worker (-k): simulate a network where only compute differs and report the virtual clock; needs -async, excludes -scenario")
	jobs     = fs.Int("jobs", runtime.GOMAXPROCS(0), "cap on goroutines for the worker/eval loops (1 = sequential; results are bit-identical; -async steps one worker at a time, so there it widens evaluation only)")
	progress = fs.Bool("progress", false, "print live sync/eval events while the run executes")
	scenario = fs.String("scenario", "", "run on the simulated-network fabric under a named scenario (lan, fedwan, straggler) and report estimated time-to-accuracy")
	worker   = fs.Bool("worker", false, "join a multi-process cluster as one worker (requires -connect; the coordinator supplies rank and job spec)")
	connect  = fs.String("connect", "", "coordinator address for -worker")
	coord    = fs.String("coordinator", "", "host a multi-process cluster on this address (e.g. :9000): wait for -k workers, drive the run, verify and print the result")
	storeDir = fs.String("store", "", "run-registry directory of trajectory-prefix snapshots: warm start from the longest stored prefix compatible with this run and publish new prefixes (result is bit-identical to a cold run)")
	traceOut = fs.String("trace", "", "write a whole-run Chrome trace-event JSON (open in Perfetto) to this file and enable telemetry; results are bit-identical with or without it")
	version  = fs.Bool("version", false, "print version information and exit")
)

func init() {
	fs.StringVar(&spec.Model, "model", "lenet5s", "zoo model: lenet5s, vgg16s, densenet121s, densenet201s, convnexts")
	fs.StringVar(&spec.Strategy, "strategy", "LinearFDA", "LinearFDA, SketchFDA, OracleFDA, Synchronous, LocalSGD, FedAvgM, FedAdam")
	fs.Float64Var(&spec.Theta, "theta", 0, "variance threshold Θ (0 = second entry of the model's default grid)")
	fs.IntVar(&spec.Tau, "tau", 10, "τ for LocalSGD")
	fs.IntVar(&spec.K, "k", 5, "number of workers K")
	fs.IntVar(&spec.Batch, "batch", 32, "local mini-batch size")
	fs.IntVar(&spec.Steps, "steps", 600, "maximum in-parallel steps")
	fs.Float64Var(&spec.Target, "target", 0, "test-accuracy target (0 = run all steps)")
	fs.StringVar(&spec.Het, "het", "iid", "data split: iid, label<Y>, pct<X>")
	fs.Uint64Var(&spec.Seed, "seed", 1, "run seed")
}

// parseFlags fills the flag variables, resolves the spec's defaults
// (Θ from the model's grid, the evaluation cadence) and vets the spec
// the way fdaserve does at admission.
func parseFlags(args []string) error {
	fs.Parse(args)
	spec = spec.WithDefaults()
	return spec.Validate()
}

// warmStart wires the session into the -store snapshot registry and
// reports a restore. Sync-time knobs (-jobs) are deliberately
// absent from the registry spec: it captures every trajectory- and
// stopping-determining input, so prefix addresses can only collide
// between runs that would replay the same silent steps (DESIGN.md §10),
// and that is the sharing the prefix family machinery makes safe.
func warmStart(sess *fda.Session, strat fda.Strategy) error {
	if _, ok := strat.(core.PrefixSharer); !ok {
		fmt.Fprintf(os.Stderr, "fdarun: %s does not share trajectory prefixes; -store has no effect, it runs cold\n", strat.Name())
		return nil
	}
	st, err := runstore.Open(*storeDir)
	if err != nil {
		return fmt.Errorf("opening store: %w", err)
	}
	var targets []float64
	if spec.Target > 0 {
		targets = []float64{spec.Target}
	}
	restored, err := experiments.WarmStart(sess, strat, st, runstore.Spec{
		Experiment: "fdarun",
		Seed:       spec.Seed,
		Model:      spec.Model,
		Strategy:   spec.Strategy,
		Theta:      spec.Theta,
		K:          spec.K,
		Het:        spec.Het,
		Targets:    targets,
		Extra: map[string]string{
			"batch": strconv.Itoa(spec.Batch),
			"steps": strconv.Itoa(spec.Steps),
		},
	}, 0)
	if restored > 0 {
		fmt.Printf("warmstart: restored %d steps from a stored prefix snapshot\n", restored)
	}
	return err
}

func main() {
	err := parseFlags(os.Args[1:])
	if *version {
		fmt.Println(buildinfo.String("fdarun"))
		return
	}
	if err != nil {
		fatal(err)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		obs.Enable()
		if err := obs.TraceTo(f); err != nil {
			fatal(err)
		}
		defer func() {
			if err := obs.StopTrace(); err != nil {
				fmt.Fprintf(os.Stderr, "fdarun: writing trace: %v\n", err)
			}
		}()
	}

	// Ctrl-C cancels the run between steps; the session machinery makes
	// that a clean stop with a partial summary instead of a hard kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Worker mode: everything about the run comes from the coordinator.
	if *worker {
		if *connect == "" {
			fatal(errors.New("-worker requires -connect host:port"))
		}
		fabric, payload, err := comm.DialFabric(ctx, *connect, comm.DefaultCostModel())
		if err != nil {
			fatal(err)
		}
		defer fabric.Close()
		res, err := dist.RunFabric(ctx, fabric, payload, *jobs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("worker rank %d finished:\n%s\nfabric: %d payload bytes moved\n", fabric.Rank(), res, fabric.MovedBytes())
		return
	}

	// Coordinator mode: no local training — ship the job spec to -k
	// worker processes, which exchange their collectives directly, and
	// report the verified cluster result.
	if *coord != "" {
		// Refuse rather than silently drop flags the job spec cannot
		// carry to the workers.
		if *scenario != "" || *speeds != "" {
			fatal(errors.New("-scenario and -speeds do not combine with -coordinator (the TCP fabric is the transport)"))
		}
		if *async || *storeDir != "" {
			fatal(errors.New("-async and -store are not available in -coordinator mode"))
		}
		co, err := comm.ListenCoordinator(*coord, spec.K)
		if err != nil {
			fatal(err)
		}
		defer co.Close()
		fmt.Printf("coordinating %d workers on %s (start them with: fdarun -worker -connect <host>%s)\n",
			spec.K, co.Addr(), *coord)
		res, err := dist.Coordinate(ctx, co, spec)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		return
	}

	cfg, err := spec.BuildConfig()
	if err != nil {
		fatal(err)
	}
	cfg.Parallelism = *jobs
	scen, err := simulatedNetwork()
	if err != nil {
		fatal(err)
	}
	if scen != nil {
		cfg.Fabric = fda.NewSimFabric(cfg.K, fda.DefaultCostModel(), *scen)
	}

	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		fatal(err)
	}
	if *async {
		strat = fda.NewAsyncFDA(strat)
	}
	sess, err := fda.NewSession(ctx, cfg, strat)
	if err != nil {
		fatal(err)
	}
	if sink := progressSink(*progress); sink != nil {
		sess.Subscribe(sink)
	}
	if *storeDir != "" {
		if cfg.Fabric != nil {
			fatal(errors.New("-store does not combine with -scenario or -speeds (virtual-clock state is outside prefix snapshots)"))
		}
		if err := warmStart(sess, strat); err != nil {
			fatal(err)
		}
	}
	res, err := sess.Run()
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	if err != nil {
		fmt.Printf("cancelled at step %d; partial result:\n", sess.StepCount())
	}
	fmt.Println(res)
	fmt.Println("history:")
	for _, p := range res.History {
		fmt.Printf("  step=%4d epoch=%5.1f acc=%.4f comm=%.4fGB syncs=%d\n",
			p.Step, p.Epoch, p.TestAcc, float64(p.CommBytes)/1e9, p.SyncCount)
	}
	if res.StepsPerWorker != nil {
		fmt.Printf("per-worker steps: %v  virtual time: %.1f\n", res.StepsPerWorker, res.VirtualSec)
		return
	}
	if res.VirtualSec > 0 {
		fmt.Printf("estimated wall-clock under scenario %q: %.2fs (compute + communication, virtual clock)\n",
			scen.Name, res.VirtualSec)
		return
	}
	for _, prof := range []fda.NetworkProfile{fda.ProfileFL, fda.ProfileBalanced, fda.ProfileHPC} {
		bits := float64(res.CommBytes) * 8
		fmt.Printf("est. comm time on %-9s %.2fs\n", prof.Name+":", bits/prof.BandwidthBps)
	}
}

// simulatedNetwork returns the scenario -scenario or -speeds selects,
// nil when neither is set.
func simulatedNetwork() (*fda.Scenario, error) {
	if *speeds == "" {
		if *scenario == "" {
			return nil, nil
		}
		scen, err := fda.ScenarioByName(*scenario)
		return &scen, err
	}
	if *scenario != "" {
		return nil, errors.New("-speeds and -scenario both choose the simulated network; give one")
	}
	if !*async {
		return nil, errors.New("-speeds paces asynchronous workers; it needs -async")
	}
	var rates []float64
	for _, part := range strings.Split(*speeds, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -speeds entry %q: %v", part, err)
		}
		rates = append(rates, v)
	}
	if len(rates) != spec.K {
		return nil, fmt.Errorf("-speeds gives %d speeds for %d workers; give one per worker (-k)", len(rates), spec.K)
	}
	scen, err := fda.SpeedsScenario(rates)
	return &scen, err
}

// progressSink returns an event sink printing live sync/eval progress
// lines to stderr, or nil when -progress is off. Step events are
// skipped: at thousands of steps per run they would swamp the terminal
// without adding signal over the sync/eval cadence.
func progressSink(enabled bool) fda.EventSink {
	if !enabled {
		return nil
	}
	return func(e fda.Event) {
		switch ev := e.(type) {
		case fda.SyncEvent:
			fmt.Fprintf(os.Stderr, "[sync %3d] step=%4d trigger=%s bytes=%d total=%d\n",
				ev.SyncCount, ev.Step, ev.Trigger, ev.SyncBytes, ev.TotalBytes)
		case fda.EvalEvent:
			fmt.Fprintf(os.Stderr, "[eval] step=%4d epoch=%5.1f acc=%.4f comm=%.4fGB syncs=%d\n",
				ev.Point.Step, ev.Point.Epoch, ev.Point.TestAcc,
				float64(ev.Point.CommBytes)/1e9, ev.Point.SyncCount)
		case fda.DoneEvent:
			fmt.Fprintf(os.Stderr, "[done] %s\n", ev.Result.String())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fdarun:", err)
	os.Exit(1)
}
