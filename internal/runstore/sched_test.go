package runstore

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

// schedRecord is a stand-in experiment record.
type schedRecord struct {
	Cell  int     `json:"cell"`
	Value float64 `json:"value"`
}

func schedSpecs(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = sampleSpec(uint64(1000 + i))
	}
	return specs
}

// computeFn returns a deterministic per-cell payload and counts calls.
func computeFn(calls *atomic.Int64) func(i int) []schedRecord {
	return func(i int) []schedRecord {
		calls.Add(1)
		return []schedRecord{{Cell: i, Value: float64(i) * 0.125}, {Cell: i, Value: float64(i) + 0.5}}
	}
}

func TestMapNilStoreComputesAll(t *testing.T) {
	var calls atomic.Int64
	specs := schedSpecs(9)
	perCell, res, err := MapCtx(context.Background(), nil, 4, specs, computeFn(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 9 || res.Executed != 9 || res.Cached != 0 || res.Cells != 9 {
		t.Fatalf("nil store: calls=%d res=%+v", calls.Load(), res)
	}
	for i, recs := range perCell {
		if len(recs) != 2 || recs[0].Cell != i {
			t.Fatalf("cell %d holds %+v", i, recs)
		}
	}
}

func TestMapCachesAcrossCalls(t *testing.T) {
	st, _ := Open(t.TempDir())
	specs := schedSpecs(7)
	var cold atomic.Int64
	first, res1, err := MapCtx(context.Background(), st, 3, specs, computeFn(&cold))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Load() != 7 || res1.Executed != 7 {
		t.Fatalf("cold run: calls=%d res=%+v", cold.Load(), res1)
	}
	var warm atomic.Int64
	second, res2, err := MapCtx(context.Background(), st, 3, specs, computeFn(&warm))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Load() != 0 || res2.Executed != 0 || res2.Cached != 7 {
		t.Fatalf("warm run recomputed: calls=%d res=%+v", warm.Load(), res2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached results diverged:\n%+v\n%+v", first, second)
	}
}

// TestMapResumesAfterKill simulates a sweep killed mid-grid: the first
// dispatch panics after completing part of the grid, and the retry must
// execute only the missing cells.
func TestMapResumesAfterKill(t *testing.T) {
	st, _ := Open(t.TempDir())
	specs := schedSpecs(10)
	const killAfter = 4
	var done atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected mid-grid panic")
			}
		}()
		// jobs=1 keeps the dispatch inline so the panic unwinds through
		// MapCtx exactly like a process kill after 4 persisted cells.
		MapCtx(context.Background(), st, 1, specs, func(i int) []schedRecord {
			if done.Load() == killAfter {
				panic("killed")
			}
			done.Add(1)
			return []schedRecord{{Cell: i}}
		})
	}()
	var retries atomic.Int64
	perCell, res, err := MapCtx(context.Background(), st, 4, specs, func(i int) []schedRecord {
		retries.Add(1)
		return []schedRecord{{Cell: i}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached != killAfter || res.Executed != len(specs)-killAfter {
		t.Fatalf("resume stats %+v, want %d cached", res, killAfter)
	}
	if retries.Load() != int64(len(specs)-killAfter) {
		t.Fatalf("resume recomputed %d cells, want %d", retries.Load(), len(specs)-killAfter)
	}
	for i, recs := range perCell {
		if len(recs) != 1 || recs[0].Cell != i {
			t.Fatalf("cell %d holds %+v", i, recs)
		}
	}
}

// TestMapRecomputesCorruptEntries: a damaged entry must not fail the
// sweep — it is recomputed and healed.
func TestMapRecomputesCorruptEntries(t *testing.T) {
	st, _ := Open(t.TempDir())
	specs := schedSpecs(3)
	var calls atomic.Int64
	if _, _, err := MapCtx(context.Background(), st, 2, specs, computeFn(&calls)); err != nil {
		t.Fatal(err)
	}
	flipByte(t, st.runDir(specs[1].Canonical().Hash())+"/records.jsonl")
	var again atomic.Int64
	perCell, res, err := MapCtx(context.Background(), st, 2, specs, computeFn(&again))
	if err != nil {
		t.Fatal(err)
	}
	if again.Load() != 1 || res.Executed != 1 || res.Cached != 2 {
		t.Fatalf("corrupt entry handling: calls=%d res=%+v", again.Load(), res)
	}
	if perCell[1][0].Cell != 1 {
		t.Fatalf("recomputed cell wrong: %+v", perCell[1])
	}
	if !st.Contains(specs[1]) {
		t.Fatal("corrupt entry not healed")
	}
}

// TestMapEmptyCellCached: cells that legitimately produce no records
// (e.g. an unreached fig12 Θ) are cached as empty, not recomputed.
func TestMapEmptyCellCached(t *testing.T) {
	st, _ := Open(t.TempDir())
	specs := schedSpecs(2)
	compute := func(i int) []schedRecord {
		if i == 0 {
			return nil
		}
		return []schedRecord{{Cell: i}}
	}
	if _, _, err := MapCtx(context.Background(), st, 1, specs, compute); err != nil {
		t.Fatal(err)
	}
	perCell, res, err := MapCtx(context.Background(), st, 1, specs, func(i int) []schedRecord {
		t.Fatalf("cell %d recomputed", i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached != 2 || len(perCell[0]) != 0 || len(perCell[1]) != 1 {
		t.Fatalf("empty-cell caching broken: %+v %+v", res, perCell)
	}
}

// TestMapCtxCancellation: cancelling mid-grid stops new cell dispatches,
// persists the cells that completed, reports the truth in MapResult, and
// a rerun over the same store resumes from exactly those cells.
func TestMapCtxCancellation(t *testing.T) {
	st, _ := Open(t.TempDir())
	specs := schedSpecs(5)
	ctx, cancel := context.WithCancel(context.Background())
	perCell, res, err := MapCtx(ctx, st, 1, specs, func(i int) []schedRecord {
		if i == 1 {
			cancel()
		}
		return []schedRecord{{Cell: i}}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Executed != 2 || res.Cached != 0 {
		t.Fatalf("cancelled MapResult: %+v", res)
	}
	for i := range specs {
		want := i < 2
		if got := perCell[i] != nil; got != want {
			t.Fatalf("cell %d present=%v after cancellation", i, got)
		}
	}

	// Resume: the two persisted cells load from the store, the other
	// three compute, and the grid result is complete.
	var computed []int
	perCell2, res2, err := MapCtx(context.Background(), st, 1, specs, func(i int) []schedRecord {
		computed = append(computed, i)
		return []schedRecord{{Cell: i}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached != 2 || res2.Executed != 3 {
		t.Fatalf("resume MapResult: %+v", res2)
	}
	if len(computed) != 3 || computed[0] != 2 {
		t.Fatalf("resume computed cells %v", computed)
	}
	for i := range specs {
		if len(perCell2[i]) != 1 || perCell2[i][0].Cell != i {
			t.Fatalf("resume cell %d: %+v", i, perCell2[i])
		}
	}
}
