package runstore

import "repro/internal/obs"

// Store telemetry (DESIGN.md §11): every public store operation is
// timed into a per-op latency histogram and traced as a "runstore"
// span carrying its outcome. These are disk-I/O cold paths, so the
// instrumentation uses plain defers; nothing here affects what the
// store reads or writes.
var (
	storeOpHelp = "Latency of one runstore operation."

	getSec      = obs.Default.Histogram("fda_runstore_op_seconds", storeOpHelp, obs.Seconds, "op", "get")
	putSec      = obs.Default.Histogram("fda_runstore_op_seconds", storeOpHelp, obs.Seconds, "op", "put")
	snapPutSec  = obs.Default.Histogram("fda_runstore_op_seconds", storeOpHelp, obs.Seconds, "op", "snapshot_put")
	snapBestSec = obs.Default.Histogram("fda_runstore_op_seconds", storeOpHelp, obs.Seconds, "op", "snapshot_best")

	// bestHits/bestMisses count warm-start lookups: the ratio is the
	// sweep-level effectiveness of prefix snapshot sharing.
	bestHits = obs.Default.Counter("fda_runstore_snapshot_best_hits_total",
		"BestSnapshot lookups that found an admissible prefix.")
	bestMisses = obs.Default.Counter("fda_runstore_snapshot_best_misses_total",
		"BestSnapshot lookups that found nothing admissible.")
)
