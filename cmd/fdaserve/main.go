// Command fdaserve exposes the experiment suite as an HTTP service
// backed by the content-addressed run registry: submit a figure sweep
// or a single training session, watch its progress live over SSE,
// cancel it, fetch its records, and browse the cached-run catalog.
// Every grid cell and every finished local training session persists
// in the registry, and a cancelled session stores its full state there
// as a resume snapshot, so repeated, interrupted or post-restart
// submissions cost only the work the store does not yet hold
// (DESIGN.md §6, §8, §10).
//
//	fdaserve -store runs.d -addr :8080
//
// With -fabric, the server also coordinates genuinely multi-process
// training: POST /v1/train with "distributed": true listens for K
// `fdarun -worker -connect` processes on the fabric address (published
// in the job view as fabric_addr), hands them the job — they exchange
// their collectives directly — and stores the verified cluster result.
//
//	fdaserve -store runs.d -addr :8080 -fabric :9000
//
//	curl -s localhost:8080/v1/healthz                 # JSON liveness
//	curl -s localhost:8080/metrics                    # Prometheus text exposition
//	curl -s localhost:8080/v1/metrics                 # jobs, simulated bytes, telemetry snapshot
//	curl -s localhost:8080/v1/experiments
//	curl -s -X POST localhost:8080/v1/runs -d '{"experiment":"fig3","scale":"tiny","seed":1}'
//	curl -s -X POST localhost:8080/v1/train -d '{"model":"lenet5s","strategy":"LinearFDA","steps":400}'
//	curl -s localhost:8080/v1/runs/r1
//	curl -N  localhost:8080/v1/runs/r1/events     # live progress (SSE)
//	curl -s -X DELETE localhost:8080/v1/runs/r1   # cancel (resumable)
//	curl -s localhost:8080/v1/runs/r1/records
//	curl -s localhost:8080/v1/runs/r1/output
//	curl -s localhost:8080/v1/store
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight run
// contexts are cancelled (training sessions store resume snapshots,
// sweeps keep their persisted cells), the listener drains, and the job
// journal is flushed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		storeDir = flag.String("store", "fdaserve-store", "run-registry directory backing the service")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "cap on concurrent sweep cells per run and on goroutines per local train job; every call widens into the idle cores (results are identical at any setting)")
		fabric   = flag.String("fabric", "", "TCP-fabric listen address for distributed train jobs (e.g. :9000); empty disables them")
		ttl      = flag.Duration("session-ttl", 7*24*time.Hour, "expire prefix snapshots and train resume snapshots older than this at startup (0 disables the sweep)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		name     = flag.String("name", "", "replica identity reported on /v1/metrics and /v1/healthz (for fdagate clusters; default: the listen address)")
		maxQueue = flag.Int("max-queue", 0, "admission cap on in-flight jobs; beyond it new submissions get 503 + Retry-After (0 = unbounded)")
		record   = flag.String("record", "", "journal every workload-relevant API request to this tracev1 file, replayable with fdaload -replay")
		version  = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("fdaserve"))
		return
	}
	if *maxQueue < 0 {
		fmt.Fprintf(os.Stderr, "fdaserve: -max-queue must be 0 (unbounded) or positive, got %d\n", *maxQueue)
		os.Exit(1)
	}

	// The server always runs with telemetry on: training results are
	// bit-identical either way (the parity tests pin this), and the
	// /metrics exposition is only useful when the registry is live.
	obs.Enable()

	st, err := runstore.Open(*storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdaserve: opening store: %v\n", err)
		os.Exit(1)
	}

	// baseCtx parents every job; the signal handler cancels it so every
	// in-flight run winds down (and stores its resume state) before the
	// process exits.
	baseCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Startup hygiene: drop expired snapshots (sweep prefixes and train
	// resume state alike), then resurface journaled mid-run jobs as
	// "interrupted".
	if *ttl > 0 {
		if n := st.SweepSnapshots(*ttl); n > 0 {
			fmt.Printf("fdaserve: expired %d stale snapshot(s)\n", n)
		}
	}
	replica := *name
	if replica == "" {
		replica = *addr
	}
	s := newServer(st, replica, *jobs, baseCtx)
	s.fabricAddr = *fabric
	s.accessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	s.pprof = *pprofOn
	s.table.MaxQueue = *maxQueue
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdaserve: opening trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tw, err := workload.NewTraceWriter(f, "fdaserve", s.clock)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdaserve: starting trace: %v\n", err)
			os.Exit(1)
		}
		s.recorder = tw
		fmt.Printf("fdaserve: recording workload trace to %s\n", *record)
	}
	if err := s.table.Recover(); err != nil {
		fmt.Fprintf(os.Stderr, "fdaserve: reading job journal: %v\n", err)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: s.routes(),
		// Slow-client hardening: a connection that never finishes its
		// headers cannot pin a handler goroutine forever. No overall
		// write timeout — the SSE endpoint streams indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("fdaserve: listening on %s, store %s\n", *addr, *storeDir)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "fdaserve: %v\n", err)
		os.Exit(1)
	case <-baseCtx.Done():
	}

	fmt.Fprintln(os.Stderr, "fdaserve: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "fdaserve: shutdown: %v\n", err)
	}
	// Job contexts are children of baseCtx, already cancelled; Wait lets
	// their goroutines store resume state and record final status.
	s.table.Wait()
}
