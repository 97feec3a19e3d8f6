package experiments

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/models"
	"repro/internal/runstore"
)

// SweepStats accumulates cell-scheduling counters across a runner's
// grids. Counters are atomic so a monitor (e.g. fdaserve's status
// endpoint) can read them while the sweep is still executing: Cells
// rises when a grid is enumerated, Executed ticks per computed cell as
// it finishes, and Cached lands when the grid's cache consultation is
// folded in.
type SweepStats struct {
	// Cells is the total grid size seen so far; Cached of those were
	// served from the run registry and Executed were computed.
	Cells, Cached, Executed atomic.Int64
	// SnapshotHits counts executed cells that warm-started from a stored
	// trajectory-prefix snapshot; StepsSaved totals the training steps
	// those restores skipped. Both stay zero unless Options.Warm is on.
	SnapshotHits, StepsSaved atomic.Int64
}

// cellSpec builds the canonical registry spec for one grid cell. Every
// argument is parallelism-independent and together they determine the
// cell's records bit-for-bit (DESIGN.md §3), which is what makes the
// content-addressed cache sound (DESIGN.md §6).
func (o Options) cellSpec(experiment, model, strategy string, theta float64,
	k int, het string, targets []float64, cellSeed uint64) runstore.Spec {
	return runstore.Spec{
		Experiment: experiment,
		Scale:      o.Scale.String(),
		Seed:       o.Seed,
		Model:      model,
		Strategy:   strategy,
		Theta:      theta,
		K:          k,
		Het:        het,
		Targets:    append([]float64(nil), targets...),
		CellSeed:   cellSeed,
	}
}

// CellEvent reports one grid cell's completion during a sweep — the
// per-cell progress stream behind fdaserve's SSE endpoint and fdaexp's
// -progress output.
type CellEvent struct {
	// Spec canonically identifies the cell.
	Spec runstore.Spec
	// Index is the cell's position in its grid; Total the grid size.
	Index, Total int
	// Cached reports whether the cell was served from the run registry
	// instead of computed.
	Cached bool
}

// sweepCancelled aborts a runner mid-enumeration when its context is
// done; Run recovers it into an ordinary error. A panic (rather than a
// sentinel return value) is deliberate: the figure runners post-process
// their grids assuming complete results, and cancellation must not hand
// them partial ones.
type sweepCancelled struct{ err error }

// runGrid is the store-aware sink every runner emits its cells through:
// cells already in o.Store load from disk, the rest compute on the job
// pool and persist before returning. Results come back in grid order
// and are byte-identical whatever mix of cache hits and parallelism
// produced them, so callers print and post-process exactly as they
// would after a fresh sequential sweep.
func runGrid[R any](o Options, specs []runstore.Spec, compute func(i int) []R) [][]R {
	if o.Stats != nil {
		o.Stats.Cells.Add(int64(len(specs)))
	}
	var computed []atomic.Bool
	if o.Events != nil {
		computed = make([]atomic.Bool, len(specs))
	}
	track := func(i int) []R {
		recs := compute(i)
		if o.Stats != nil {
			o.Stats.Executed.Add(1)
		}
		if o.Events != nil {
			computed[i].Store(true)
			o.Events(CellEvent{Spec: specs[i], Index: i, Total: len(specs)})
		}
		return recs
	}
	perCell, res, err := runstore.MapCtx(o.Ctx, o.Store, o.Jobs, specs, track)
	if o.Stats != nil {
		o.Stats.Cached.Add(int64(res.Cached))
	}
	cancelled := err != nil && o.Ctx != nil && errors.Is(err, o.Ctx.Err())
	if o.Events != nil {
		// Cache hits are announced after the dispatch, in grid order
		// (computed cells already announced themselves live). On a
		// completed grid every non-computed cell came from the store —
		// including legitimately empty ones; on a cancelled grid only
		// cells with decoded records are known to be cache hits (unvisited
		// cells stay nil and are not announced).
		for i := range specs {
			if computed[i].Load() {
				continue
			}
			if !cancelled || perCell[i] != nil {
				o.Events(CellEvent{Spec: specs[i], Index: i, Total: len(specs), Cached: true})
			}
		}
	}
	if err != nil {
		if cancelled {
			panic(sweepCancelled{err})
		}
		// Persistence failures must not fail (or alter) the sweep: results
		// are complete, only the cache write was lost. Report off the
		// record stream so output parity between runs is preserved.
		fmt.Fprintf(os.Stderr, "experiments: run registry: %v\n", err)
	}
	return perCell
}

// flatten concatenates per-cell record slices in cell order.
func flatten(perCell [][]Record) []Record {
	var recs []Record
	for _, rs := range perCell {
		recs = append(recs, rs...)
	}
	return recs
}

// lazyWorkload defers dataset generation until a cell actually
// computes: a fully cached sweep reads records without synthesizing a
// single sample. The model spec itself (architecture, Θ grid, paper
// metadata) is resolved eagerly because grid enumeration and table
// headers need it.
type lazyWorkload struct {
	spec models.Spec
	seed uint64
	once sync.Once
	w    workload
}

func newLazyWorkload(model string, seed uint64) *lazyWorkload {
	spec, err := models.ByName(model)
	if err != nil {
		panic(err)
	}
	return &lazyWorkload{spec: spec, seed: seed}
}

// get generates the datasets on first use (goroutine-safe; compute
// closures race here when the first uncached cells dispatch together).
func (l *lazyWorkload) get() workload {
	l.once.Do(func() {
		train, test := models.DatasetFor(l.spec, l.seed)
		l.w = workload{spec: l.spec, train: train, test: test}
	})
	return l.w
}
