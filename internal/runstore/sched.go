package runstore

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// MapResult reports how one grid dispatch was satisfied.
type MapResult struct {
	// Cells is the grid size, Cached how many cells were served from the
	// store, Executed how many were computed. On a completed grid
	// Cached + Executed = Cells; under cancellation Executed counts only
	// the cells that finished before the context fired.
	Cells, Cached, Executed int
}

// MapCtx is the store-aware sweep scheduler. It evaluates one grid of
// cells: cell i is described by specs[i] and computed, when needed, by
// compute(i), which must return the cell's records as a pure function
// of specs[i] (the determinism contract of DESIGN.md §3).
//
// For every cell the store already holds, the cached records are
// decoded instead of recomputed; the remaining cells dispatch across
// the par pool (jobs follows the par.Resolve convention) and persist
// before MapCtx returns, so an interrupted sweep resumes from the cells
// it completed. Results are returned in grid order and are
// byte-identical whatever mix of cache hits, misses and parallelism
// produced them.
//
// st may be nil, which disables caching and reduces MapCtx to a
// parallel map. Store read failures (including corrupt entries)
// downgrade to recomputation; the first store write failure is reported
// in err after the full grid has been evaluated, so results are
// complete even when persistence is not.
//
// Cancellation is cooperative and cell-granular: cells already
// computing finish (and persist), no new cell dispatches, and the
// returned error is ctx.Err(). Because every completed cell persisted,
// re-running the same grid later — with the same store — resumes
// exactly where the cancellation landed.
func MapCtx[R any](ctx context.Context, st *Store, jobs int, specs []Spec, compute func(i int) []R) (perCell [][]R, res MapResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	perCell = make([][]R, len(specs))
	res.Cells = len(specs)

	// Cache-consultation pass: decode hits, collect misses.
	var missing []int
	for i, spec := range specs {
		if st == nil {
			missing = append(missing, i)
			continue
		}
		lines, ok, _ := st.Get(spec)
		if !ok {
			missing = append(missing, i)
			continue
		}
		recs, decErr := decodeRecords[R](lines)
		if decErr != nil {
			// Entries written by an older record schema decode loudly, not
			// silently: recompute and overwrite.
			missing = append(missing, i)
			continue
		}
		perCell[i] = recs
	}
	res.Cached = len(specs) - len(missing)

	// Compute pass: only the misses touch the pool. A panicking cell is
	// captured and re-raised on the calling goroutine after the grid
	// drains — pool goroutines must never die unrecovered (that would
	// kill the whole process, e.g. an fdaserve instance, regardless of
	// any recover installed by the caller), and completed cells keep
	// their persisted results for the next resume. Executed counts cells
	// that actually computed, which under cancellation is fewer than the
	// misses (Cached + Executed = Cells only on a completed grid).
	var mu sync.Mutex
	var firstErr error
	var panicked any
	var executed atomic.Int64
	ctxErr := par.ForEachCtx(ctx, par.Resolve(jobs), len(missing), func(j int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
			}
		}()
		i := missing[j]
		recs := compute(i)
		perCell[i] = recs
		executed.Add(1)
		if st == nil {
			return
		}
		if putErr := putRecords(st, specs[i], recs); putErr != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = putErr
			}
			mu.Unlock()
		}
	})
	res.Executed = int(executed.Load())
	if panicked != nil {
		panic(panicked)
	}
	if ctxErr != nil {
		// Cancellation outranks a store-write error: the caller aborted
		// the sweep and must see that, not a persistence detail.
		return perCell, res, ctxErr
	}
	return perCell, res, firstErr
}

// putRecords encodes and stores one cell's records.
func putRecords[R any](st *Store, spec Spec, recs []R) error {
	lines := make([]json.RawMessage, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("runstore: encoding record: %w", err)
		}
		lines[i] = b
	}
	return st.Put(spec, lines)
}

// decodeRecords decodes one cell's stored JSONL lines.
func decodeRecords[R any](lines []json.RawMessage) ([]R, error) {
	if len(lines) == 0 {
		return nil, nil
	}
	recs := make([]R, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &recs[i]); err != nil {
			return nil, fmt.Errorf("runstore: decoding record %d: %w", i, err)
		}
	}
	return recs, nil
}
