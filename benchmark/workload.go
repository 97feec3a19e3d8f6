package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"
)

// processStart approximates the child's start: package initialisation
// runs a few hundred microseconds after exec.
var processStart = time.Now()

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	// root is the repository checkout (absolute).
	root string
	// seed derives every dataset, job and sweep seed of the run.
	seed uint64
	// segs is the number of equal-work segments of the timed phase.
	segs int
	// setups is how many times set-up is performed and timed; the last
	// one feeds the timed phase, setup_s is the quiet one.
	setups int
	// bootSec is process start → workload start (runtime boot, flag
	// parsing); it is added to every set-up duration so setup_s runs from
	// the child's start to its first timed segment.
	bootSec float64
	// scale divides the per-segment work; 1 in real runs, 100 in the
	// plumbing smoke test.
	scale int
	// tr is non-nil in the traced pass; segs is then even.
	tr *tracer
}

// arm is called at the start of timed segment s. In the traced pass
// recording alternates — even segments off, odd segments on — so the
// two halves see the same machine drift and their difference is the
// tracing overhead; disarm ends the phase.
func (rc runConfig) arm(s int) {
	if rc.tr != nil {
		rc.tr.on.Store(s%2 == 1)
	}
}

func (rc runConfig) disarm() {
	if rc.tr != nil {
		rc.tr.on.Store(false)
	}
}

// recordedSegs is how many of the timed segments are recorded.
func (rc runConfig) recordedSegs() int { return rc.segs / 2 }

// settle collects the garbage a discarded set-up or a finished phase
// left behind. The harness builds several sessions, clusters and
// datasets per run; without this the process's peak RSS would depend on
// where the collector happened to be when the next one was allocated
// (it read 97–121 MB for identical dist_fda runs).
func settle() {
	runtime.GC()
}

// scaled divides a per-segment work count by the smoke-test scale.
func (rc runConfig) scaled(n int) int {
	if rc.scale <= 1 {
		return n
	}
	if n /= rc.scale; n < 1 {
		n = 1
	}
	return n
}

// outcome is what a workload pass measured.
type outcome struct {
	// setupSec holds one duration per performed set-up.
	setupSec []float64
	segs     []segment
	// samples and commBytes total the delivered training work of the
	// timed phase and the communication the cost model charged for it.
	samples, commBytes int64
	// attempted, failed and refused count unit ops of the timed phase.
	attempted, failed, refused int
	// childRSSMB is the peak resident set of the largest server pair the
	// workload started and reaped.
	childRSSMB float64
	// layer holds the per-layer metrics of a traced pass.
	layer map[string]float64
	// faults lists every correctness check that did not hold.
	faults []string
}

func (o *outcome) faultf(format string, args ...any) {
	o.faults = append(o.faults, fmt.Sprintf(format, args...))
}

func (o *outcome) setLayer(name string, v float64) {
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer[name] = v
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// op names the unit operation op_p50_ms times.
	op string
	// segSec is the length of one segment on the 2-core reference box
	// when its neighbours are quiet; it converts --seconds into a segment
	// count.
	segSec float64
	// minSegs is the fewest segments the quiet-decile estimators accept.
	minSegs int
	run     func(ctx context.Context, rc runConfig) (*outcome, error)
}

var workloads = []workload{
	{
		name:    "train_compute",
		why:     "in-process 4-worker CNN training: kernels and optimizer are >=90% of a step, the fabric <1%",
		op:      "Session.Step (K=4, batch 32, vgg16s)",
		segSec:  0.37,
		minSegs: 4,
		run:     runTrainCompute,
	},
	{
		name:    "dist_sync",
		why:     "two ranks over the TCP fabric syncing a 94k-parameter model every step: the fabric is about half of a step",
		op:      "Session.Step on rank 0 (K=2, batch 8, convnexts, Synchronous)",
		segSec:  0.10,
		minSegs: 4,
		run:     func(ctx context.Context, rc runConfig) (*outcome, error) { return runDist(ctx, rc, "Synchronous") },
	},
	{
		name:    "dist_fda",
		why:     "same cluster under LinearFDA: a two-scalar state exchange per step and rare model syncs, the paper's headline",
		op:      "Session.Step on rank 0 (K=2, batch 8, convnexts, LinearFDA)",
		segSec:  0.05,
		minSegs: 4,
		run:     func(ctx context.Context, rc runConfig) (*outcome, error) { return runDist(ctx, rc, "LinearFDA") },
	},
	{
		name:    "sweep_store",
		why:     "a Theta sweep run cold then fully cached through a fresh run registry: checkpoint, runstore and warm starts do the differential work",
		op:      "100 executed training steps of one sweep cell (cell latency / steps it executed x 100)",
		segSec:  7.5,
		minSegs: 2,
		run:     runSweepStore,
	},
	{
		name:    "serve_mix",
		why:     "two closed-loop clients drive train jobs, resubmissions, a sweep and reads through fdagate into fdaserve over HTTP",
		op:      "POST until a 5 ms poll sees a terminal status (reads: one GET)",
		segSec:  2.5,
		minSegs: 3,
		run:     runServeMix,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deriveSeed maps the run seed and a label to a non-zero 64-bit seed
// (zero means "default" to the job specs), so every dataset, job and
// sweep of a run draws from its own stream and the same --seed always
// produces the same inputs.
func deriveSeed(seed uint64, label string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(label))
	// Job seeds travel through JSON numbers; stay inside 2^53 so every
	// decoder on the path round-trips them exactly.
	s := h.Sum64() & (1<<53 - 1)
	if s == 0 {
		s = 1
	}
	return s
}

// sinceSec is time.Since in float seconds.
func sinceSec(t time.Time) float64 { return time.Since(t).Seconds() }

// bitsEqual compares two vectors bit for bit (NaN-safe, -0 ≠ +0).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
