package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/runstore"
)

const (
	// sweepExperiment is the grid sweep_store runs: every FDA variant
	// across a Θ series sharing one trajectory seed per variant, which is
	// what gives warm starts something to reuse.
	sweepExperiment = "thetasweep"
	// sweepSmokeExperiment stands in for it in the plumbing smoke test:
	// two cells, no siblings, so no warm start is expected of it.
	sweepSmokeExperiment = "smoke"
	// sweepBatch is the mini-batch size experiments.baseConfig fixes.
	sweepBatch = 32
)

// sweepPass is one experiments.Run call, with per-cell timing taken
// from the cell-event stream.
type sweepPass struct {
	records []experiments.Record
	body    []byte // canonical JSON of records, for byte comparison
	stats   experiments.SweepStats
	wallSec float64
	// cells holds every executed (not cached) cell in completion order.
	cells []sweepCell
}

// sweepCell is one executed grid cell.
type sweepCell struct {
	index int     // position in the grid, and of its record
	ms    float64 // latency
	// restored is the number of steps a prefix snapshot spared the cell
	// (0 for a cold cell).
	restored int
}

// per100 is the cell's latency per 100 steps it actually executed: the
// sweep's unit op. Cells run to an accuracy target, so their raw
// latency follows the seed's trajectory length; per executed step it
// follows the code.
func (c sweepCell) per100(recs []experiments.Record) float64 {
	executed := recs[c.index].Steps - c.restored
	if executed <= 0 {
		return 0
	}
	return c.ms / float64(executed) * 100
}

// runSweep executes the sweep once. With jobs == 1 cells complete one
// after another, so the time between consecutive cell events is the
// cell's latency. A tracer lane, when given, receives one span per
// executed cell under a span for the pass.
func runSweep(ctx context.Context, experiment string, seed uint64, store *runstore.Store, jobs int, l *lane, passName string) (*sweepPass, error) {
	p := &sweepPass{}
	var mu sync.Mutex
	passIdx, passID := -1, int32(0)
	if l != nil {
		passIdx, passID = l.beginUnder(passName, 0, l.t.op.Add(1))
	}
	start := time.Now()
	last := start
	var saved int64
	opts := experiments.Options{
		Scale: experiments.Tiny, Seed: seed, Jobs: jobs, Ctx: ctx,
		Store: store, Warm: store != nil, Stats: &p.stats,
		Events: func(ev experiments.CellEvent) {
			mu.Lock()
			defer mu.Unlock()
			now := time.Now()
			if !ev.Cached {
				sv := p.stats.StepsSaved.Load()
				cell := sweepCell{index: ev.Index, ms: float64(now.Sub(last)) / 1e6, restored: int(sv - saved)}
				p.cells = append(p.cells, cell)
				saved = sv
				if l != nil {
					name := "cell.cold"
					if cell.restored > 0 {
						name = "cell.warm"
					}
					i, _ := l.beginUnder(name, passID, int64(ev.Index))
					if i >= 0 {
						l.spans[i].Start = int64(last.Sub(l.t.epoch))
						l.end(i)
					}
				}
			}
			last = now
		},
	}
	res, err := experiments.Run(experiment, opts)
	p.wallSec = sinceSec(start)
	if l != nil {
		l.end(passIdx)
	}
	if err != nil {
		return nil, err
	}
	recs, ok := res.([]experiments.Record)
	if !ok {
		return nil, fmt.Errorf("%s returned %T, want []experiments.Record", experiment, res)
	}
	p.records = recs
	if p.body, err = json.Marshal(recs); err != nil {
		return nil, err
	}
	return p, nil
}

// recordTotals sums the delivered work of a record set: training
// samples (Steps × batch × K) and charged communication bytes.
func recordTotals(recs []experiments.Record) (samples, commBytes int64) {
	for _, r := range recs {
		samples += int64(r.Steps) * sweepBatch * int64(r.K)
		commBytes += int64(math.Round(r.CommGB * 1e9))
	}
	return samples, commBytes
}

func runSweepStore(ctx context.Context, rc runConfig) (*outcome, error) {
	experiment := sweepExperiment
	if rc.scale > 1 {
		experiment = sweepSmokeExperiment
	}
	out := &outcome{}
	seed := deriveSeed(rc.seed, "sweep_store")

	// Set-up: the grid once cold, no store — dataset synthesis plus every
	// cell from step 0. Its records are the reference every later pass
	// must reproduce byte for byte. (Both cores: records are identical at
	// any Jobs setting, and nothing here is a per-cell timing.)
	t0 := time.Now()
	ref, err := runSweep(ctx, experiment, seed, nil, 2, nil, "")
	if err != nil {
		return nil, err
	}
	out.setupSec = append(out.setupSec, rc.bootSec+sinceSec(t0))
	refSteps := 0
	for _, r := range ref.records {
		refSteps += r.Steps
	}

	var l *lane
	if rc.tr != nil {
		l = rc.tr.newLane()
		defer rc.disarm()
	}
	var cold, warm, cached []float64
	var hits, saved int64
	var diskBytes int64
	for s := 0; s < rc.segs; s++ {
		settle()
		rc.arm(s)
		seg, err := func() (segment, error) {
			dir, err := scratchDir(rc.root, "sweep-store")
			if err != nil {
				return segment{}, err
			}
			defer os.RemoveAll(dir)
			store, err := runstore.Open(dir)
			if err != nil {
				return segment{}, err
			}
			t0 := time.Now()
			// Pass 1: empty registry. Cold cells, prefix publishes, warm
			// restores, record puts. Jobs: 1 keeps which cell finds which
			// snapshot deterministic.
			p1, err := runSweep(ctx, experiment, seed, store, 1, l, "pass.fill")
			if err != nil {
				return segment{}, err
			}
			// Pass 2: the same call, now entirely served from the registry.
			p2, err := runSweep(ctx, experiment, seed, store, 1, l, "pass.cached")
			if err != nil {
				return segment{}, err
			}
			wall := sinceSec(t0)
			diskBytes = dirBytes(dir)

			for _, p := range []*sweepPass{p1, p2} {
				if !bytes.Equal(p.body, ref.body) {
					out.faultf("sweep_store: segment %d records differ from the cold reference", s)
				}
			}
			if c, n := p2.stats.Cached.Load(), p2.stats.Cells.Load(); c != n || n == 0 {
				out.faultf("sweep_store: segment %d second pass served %d of %d cells from the registry", s, c, n)
			}
			if experiment == sweepExperiment && p1.stats.SnapshotHits.Load() == 0 {
				out.faultf("sweep_store: segment %d first pass warm-started no cell", s)
			}
			hits, saved = p1.stats.SnapshotHits.Load(), p1.stats.StepsSaved.Load()
			seg := segment{}
			for _, c := range p1.cells {
				if c.restored > 0 {
					warm = append(warm, c.ms)
				} else {
					cold = append(cold, c.ms)
				}
				seg.opMs = append(seg.opMs, c.per100(p1.records))
			}
			if n := p2.stats.Cells.Load(); n > 0 {
				cached = append(cached, p2.wallSec*1e3/float64(n))
			}

			seg.wallSec = wall
			for _, p := range []*sweepPass{p1, p2} {
				smp, cb := recordTotals(p.records)
				seg.samples += smp
				out.commBytes += cb
			}
			out.attempted += len(p1.cells)
			out.samples += seg.samples
			return seg, nil
		}()
		if err != nil {
			return nil, err
		}
		out.segs = append(out.segs, seg)
	}

	if rc.tr != nil {
		out.setLayer("experiments.cell_cold_ms", median(cold))
		out.setLayer("experiments.cell_warm_ms", median(warm))
		out.setLayer("experiments.cell_cached_ms", median(cached))
		out.setLayer("experiments.snapshot_hits", float64(hits))
		if refSteps > 0 {
			out.setLayer("experiments.steps_saved_share", float64(saved)/float64(refSteps))
		}
		out.setLayer("runstore.disk_bytes", float64(diskBytes))
		// The cells are lenet5s, K=5, batch 32 sessions.
		probe := dist.JobSpec{Model: "lenet5s", Strategy: "LinearFDA", K: 5, Batch: sweepBatch, Seed: seed}.WithDefaults()
		if err := probeLayers(ctx, rc, out, probe); err != nil {
			return nil, fmt.Errorf("sweep_store probes: %w", err)
		}
	}
	return out, nil
}
