// Command fdagate is the scale-out front-end for fdaserve (DESIGN.md
// §14): it proxies the full v1 API across N replicas sharing one
// content-addressed runstore. Train and sweep submissions are routed by
// cache affinity — the spec's canonical dedupe key, SHA-256'd exactly
// like the replicas themselves address it, rendezvous-hashed over the
// replica set — so a resubmitted spec lands on the replica that already
// owns the job no matter when or where it was first run. Everything the
// affinity tier can't place (cold specs whose owner is quarantined,
// draining or inside an overload window) falls back to the replica with
// the shallowest queue, and a bounded admission gate in front means the
// cluster degrades with 503 + Retry-After, never with timeouts.
//
//	# three replicas on one shared store
//	fdaserve -store runs.d -addr :8081 -name r1 -max-queue 64 &
//	fdaserve -store runs.d -addr :8082 -name r2 -max-queue 64 &
//	fdaserve -store runs.d -addr :8083 -name r3 -max-queue 64 &
//	fdagate -addr :8070 -replicas http://localhost:8081,http://localhost:8082,http://localhost:8083
//
//	curl -s localhost:8070/v1/cluster       # replica health/load table
//	curl -s -X POST localhost:8070/v1/train -d '{"model":"lenet5s","strategy":"LinearFDA"}'
//	curl -s localhost:8070/v1/runs/<id>     # id embeds the owning replica
//
// Job ids are namespaced "<replica-prefix>-<id>" (the prefix is derived
// from the replica URL), so id-scoped requests route statelessly and
// the gateway survives restarts without a job table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	var (
		addr       = flag.String("addr", ":8070", "gateway listen address")
		replicas   = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		poll       = flag.Duration("poll", 1*time.Second, "replica health/load poll interval")
		maxPending = flag.Int("max-pending", 1024, "bound on concurrently proxied submissions; beyond it the gateway answers 503 immediately")
		version    = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("fdagate"))
		return
	}

	bases := splitList(*replicas)
	if len(bases) == 0 {
		fatal(errors.New("at least one -replicas base URL is required"))
	}
	if *poll <= 0 {
		fatal(fmt.Errorf("-poll must be a positive interval, got %v", *poll))
	}
	if *maxPending <= 0 {
		fatal(fmt.Errorf("-max-pending must be positive, got %d", *maxPending))
	}

	// The gateway always runs with telemetry on, like fdaserve: the
	// per-replica gauges and routing counters are its operational
	// surface.
	obs.Enable()

	pool, err := cluster.NewPool(bases, cluster.Options{
		Client: &http.Client{Timeout: 5 * time.Second},
		Clock:  clock.Wall(),
	})
	if err != nil {
		fatal(err)
	}
	gw := cluster.NewGateway(pool, cluster.GatewayOptions{
		MaxPending: *maxPending,
		Version:    buildinfo.String("fdagate"),
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// First poll before accepting traffic, so the initial routing acts
	// on observed health instead of pure optimism; then the background
	// poll loop keeps load fresh and probes quarantined replicas for
	// rejoin.
	pool.Poll(ctx)
	go func() {
		t := time.NewTicker(*poll)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				pool.Poll(ctx)
			}
		}
	}()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("fdagate: listening on %s, %d replica(s)\n", *addr, len(bases))
	for _, v := range pool.Views() {
		state := "up"
		if !v.Healthy {
			state = "unreachable"
		}
		fmt.Printf("fdagate:   %s (%s) prefix=%s %s\n", v.Name, v.Base, v.Prefix, state)
	}

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "fdagate: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "fdagate: shutdown: %v\n", err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fdagate:", err)
	os.Exit(1)
}
