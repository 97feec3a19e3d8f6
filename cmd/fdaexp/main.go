// Command fdaexp regenerates the paper's tables and figures on the scaled
// workloads. Each experiment prints the data rows/series behind the
// corresponding table or figure (see DESIGN.md §4 for the index).
//
// With -store, results are cached in a content-addressed run registry
// (DESIGN.md §6): every grid cell that was already computed — by a
// previous invocation, an interrupted sweep, or fdaserve — loads from
// disk, and only the missing cells execute. The registry also holds
// trajectory-prefix snapshots, so cells sharing a trajectory warm start
// from each other (DESIGN.md §10). Output is byte-identical either way.
//
// Examples:
//
//	fdaexp -exp table2
//	fdaexp -exp fig3
//	fdaexp -exp all -scale quick
//	fdaexp -exp fig12 -scale full        # paper-like grids; hours of CPU
//	fdaexp -exp all -store runs.d        # populate the run registry; rerun to resume a killed sweep
//	fdaexp -exp thetasweep -store runs.d # Θ cells share trajectory prefixes
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runstore"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "table2, fig3 … fig13, smoke, netsweep, or all (= the paper artifacts)")
		scale    = flag.String("scale", "quick", "tiny, quick or full")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "cap on concurrent sweep cells (1 = one cell at a time; every cell widens into the idle cores; output is identical at any setting)")
		storeDir = flag.String("store", "", "run-registry directory: cache every grid cell's records there, reuse cached cells and warm start cells sharing a trajectory prefix (bit-identical output, lower wall clock)")
		progress = flag.Bool("progress", false, "print one line per grid cell as the sweep executes")
		traceOut = flag.String("trace", "", "write a whole-sweep Chrome trace-event JSON (open in Perfetto) to this file and enable telemetry; output is byte-identical with or without it")
		version  = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("fdaexp"))
		return
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdaexp: %v\n", err)
			os.Exit(1)
		}
		obs.Enable()
		if err := obs.TraceTo(f); err != nil {
			fmt.Fprintf(os.Stderr, "fdaexp: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := obs.StopTrace(); err != nil {
				fmt.Fprintf(os.Stderr, "fdaexp: writing trace: %v\n", err)
			}
		}()
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdaexp: unknown scale %q\n", *scale)
		os.Exit(1)
	}
	// Ctrl-C cancels the sweep between grid cells; with -store, the cells
	// that completed are persisted, so rerunning with the same -store
	// picks up exactly where the cancellation landed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	o := experiments.Options{Scale: sc, Seed: *seed, Out: os.Stdout, Jobs: *jobs, Ctx: ctx}
	if *progress {
		var mu sync.Mutex
		o.Events = func(ce experiments.CellEvent) {
			mu.Lock()
			defer mu.Unlock()
			src := "ran"
			if ce.Cached {
				src = "cached"
			}
			fmt.Fprintf(os.Stderr, "[cell %d/%d %s] %s %s K=%d theta=%g\n",
				ce.Index+1, ce.Total, src, ce.Spec.Model, ce.Spec.Strategy, ce.Spec.K, ce.Spec.Theta)
		}
	}

	if *storeDir != "" {
		st, err := runstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdaexp: opening store: %v\n", err)
			os.Exit(1)
		}
		o.Store = st
		o.Stats = &experiments.SweepStats{}
		o.Warm = true
	}

	names := experiments.PaperNames()
	if *exp != "all" {
		if _, ok := experiments.Lookup(*exp); !ok {
			fmt.Fprintf(os.Stderr, "fdaexp: unknown experiment %q (have %s)\n",
				*exp, strings.Join(experiments.Names(), ", "))
			os.Exit(1)
		}
		names = []string{*exp}
	}

	for _, name := range names {
		start := time.Now()
		if _, err := experiments.Run(name, o); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "fdaexp: %s cancelled", name)
				if o.Store != nil {
					fmt.Fprintf(os.Stderr, "; completed cells are in %s (rerun with the same -store)", *storeDir)
				}
				fmt.Fprintln(os.Stderr)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "fdaexp: %v\n", err)
			os.Exit(1)
		}
		if *exp == "all" {
			fmt.Printf("[%s done in %.0fs]\n", name, time.Since(start).Seconds())
		}
	}
	if o.Stats != nil {
		fmt.Printf("[store %s: %d cells, %d cached, %d executed]\n",
			*storeDir, o.Stats.Cells.Load(), o.Stats.Cached.Load(), o.Stats.Executed.Load())
		fmt.Printf("[warmstart: %d snapshot hits, %d steps saved]\n",
			o.Stats.SnapshotHits.Load(), o.Stats.StepsSaved.Load())
	}
}
