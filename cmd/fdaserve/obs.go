package main

import "repro/internal/obs"

// This file holds fdaserve's job telemetry (DESIGN.md §11). The HTTP
// side — per-route latency histograms, status-code counters, the access
// log and the GET /metrics exposition — is cluster.HTTPShell, shared
// with fdagate.

// Job scheduling telemetry. Queue wait is the admission→start interval
// (zero-ish under the in-process executor, real under a queueing one);
// run time is start→terminal-status per job kind.
var (
	jobQueueWait = obs.Default.Histogram("fdaserve_job_queue_wait_seconds",
		"Delay between a job's admission and its execute goroutine starting.", obs.Seconds)
	jobRunSweep = obs.Default.Histogram("fdaserve_job_run_seconds",
		"Job wall-clock from execution start to terminal status.", obs.Seconds, "kind", "sweep")
	jobRunTrain = obs.Default.Histogram("fdaserve_job_run_seconds",
		"Job wall-clock from execution start to terminal status.", obs.Seconds, "kind", "train")
	// jobsRejected counts submissions refused by the -max-queue
	// admission cap (503 + Retry-After) — shed load, observable apart
	// from failures.
	jobsRejected = obs.Default.Counter("fdaserve_jobs_rejected_total",
		"Job submissions refused by the -max-queue admission cap.")
	// jobsInFlight/jobsMaxQueue expose the admission window as gauges so
	// Prometheus (and fdagate's poller) can see headroom, not just
	// rejections after the fact. Sampled at scrape time.
	jobsInFlight = obs.Default.Gauge("fdaserve_jobs_in_flight",
		"Admitted jobs that have not reached a terminal status.")
	jobsMaxQueue = obs.Default.Gauge("fdaserve_jobs_max_queue",
		"The -max-queue admission cap (0 = unbounded).")
)

// sampleAdmissionGauges refreshes the admission gauges from the live
// counters; both metrics endpoints call it before reading the registry.
func (s *server) sampleAdmissionGauges() {
	jobsInFlight.Set(float64(s.active.Load()))
	jobsMaxQueue.Set(float64(s.maxQueue))
}

func jobRunSeconds(kind string) *obs.Histogram {
	if kind == "train" {
		return jobRunTrain
	}
	return jobRunSweep
}
