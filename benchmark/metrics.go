package main

// metricDef mirrors one metric entry of BENCHMARK.json; a unit test
// keeps the two lists identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression (0 for
	// per-layer metrics, which are not gated).
	Bound float64
}

// endToEnd lists the metrics every workload reports from its untraced
// pass — what a user of the system sees. The three timings carry the
// widest bound the benchmark contract allows: the reference box has a
// quiet and a contended mode, each lasting tens of minutes, in which
// identical code reads 15–33 % apart (README.md, "What the box does to
// the numbers"); inside one mode the spreads are 2–5 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer lists the metrics of the traced pass, one group per layer of
// the repository. A layer a workload does not touch reports 0.
var perLayer = []metricDef{
	{Name: "nn.lossgrad_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.axpy_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.dot_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "opt.step_ms", Unit: "ms", Better: "lower"},
	{Name: "data.synth_ms", Unit: "ms", Better: "lower"},
	{Name: "data.sample_us", Unit: "us", Better: "lower"},
	{Name: "core.step_ms", Unit: "ms", Better: "lower"},
	{Name: "core.local_share", Unit: "share", Better: "higher"},
	{Name: "core.strategy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.syncs", Unit: "count", Better: "lower"},
	{Name: "core.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.model_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.state_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.calls_per_step", Unit: "count", Better: "lower"},
	{Name: "comm.busy_share", Unit: "share", Better: "lower"},
	{Name: "comm.bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "comm.charged_bytes", Unit: "B", Better: "lower"},
	{Name: "comm.wire_bytes", Unit: "B", Better: "lower"},
	{Name: "comm.wire_overhead", Unit: "share", Better: "lower"},
	{Name: "checkpoint.marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.unmarshal_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "runstore.put_ms", Unit: "ms", Better: "lower"},
	{Name: "runstore.get_ms", Unit: "ms", Better: "lower"},
	{Name: "runstore.put_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "runstore.best_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "runstore.disk_bytes", Unit: "B", Better: "lower"},
	{Name: "experiments.cell_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.cell_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.cell_cached_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.snapshot_hits", Unit: "count", Better: "higher"},
	{Name: "experiments.steps_saved_share", Unit: "share", Better: "higher"},
	{Name: "cluster.proxy_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "fdaserve.admit_ms", Unit: "ms", Better: "lower"},
	{Name: "fdaserve.dedupe_ms", Unit: "ms", Better: "lower"},
	{Name: "fdaserve.read_ms", Unit: "ms", Better: "lower"},
	{Name: "fdaserve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "fdaserve.run_ms", Unit: "ms", Better: "lower"},
	{Name: "fdaserve.rejected", Unit: "count", Better: "lower"},
	{Name: "fdaserve.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "fdaserve.rss_end_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "e2e.samples_per_s_wall", Unit: "1/s", Better: "higher"},
	{Name: "e2e.op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.op_tail_pct", Unit: "%", Better: "higher"},
}
