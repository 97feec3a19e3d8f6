package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// storeRun executes the cheap parity grid against st, returning the
// records, the rendered output and the scheduling stats.
func storeRun(t *testing.T, st *runstore.Store, jobs int) ([]Record, string, *SweepStats) {
	t.Helper()
	var b strings.Builder
	stats := &SweepStats{}
	recs := cloudFigure(parityCloudSpec(), Options{
		Scale: Tiny, Seed: 3, Out: &b, Jobs: jobs, Store: st, Stats: stats,
	})
	return recs, b.String(), stats
}

// TestSweepCacheParityAndResume is the run-registry acceptance test:
// a second, fully cached sweep returns byte-identical records and
// output while executing zero cells, and a sweep missing part of its
// grid (the killed-mid-sweep state) executes exactly the missing cells.
func TestSweepCacheParityAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline without a store, then a cold cached run: both must agree.
	baseRecs, baseOut, baseStats := storeRun(t, nil, 2)
	coldRecs, coldOut, coldStats := storeRun(t, st, 2)
	cells := int(coldStats.Cells.Load())
	if cells == 0 || int(baseStats.Cells.Load()) != cells {
		t.Fatalf("cell counts: base %d cold %d", baseStats.Cells.Load(), coldStats.Cells.Load())
	}
	if got := int(coldStats.Executed.Load()); got != cells {
		t.Fatalf("cold run executed %d of %d cells", got, cells)
	}
	if !reflect.DeepEqual(baseRecs, coldRecs) || baseOut != coldOut {
		t.Fatalf("store-backed run diverged from plain run:\n%s\n---\n%s", baseOut, coldOut)
	}

	// Warm run: everything from cache, nothing executed, same bytes.
	warmRecs, warmOut, warmStats := storeRun(t, st, 4)
	if got := int(warmStats.Executed.Load()); got != 0 {
		t.Fatalf("warm run executed %d cells, want 0", got)
	}
	if got := int(warmStats.Cached.Load()); got != cells {
		t.Fatalf("warm run cached %d of %d cells", got, cells)
	}
	if !reflect.DeepEqual(coldRecs, warmRecs) {
		t.Fatalf("cached records diverged:\ncold: %+v\nwarm: %+v", coldRecs, warmRecs)
	}
	if coldOut != warmOut {
		t.Fatalf("cached output diverged:\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}

	// Simulate a sweep killed mid-grid by removing part of the store's
	// run directories (<store>/runs/<hash[:2]>/<hash>, DESIGN §6), then
	// resume: exactly the missing cells execute, bytes unchanged.
	manifests, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != cells {
		t.Fatalf("store holds %d entries for %d cells", len(manifests), cells)
	}
	const drop = 1
	for _, m := range manifests[:drop] {
		if err := os.RemoveAll(filepath.Join(dir, "runs", m.Hash[:2], m.Hash)); err != nil {
			t.Fatal(err)
		}
	}
	resRecs, resOut, resStats := storeRun(t, st, 3)
	if got := int(resStats.Executed.Load()); got != drop {
		t.Fatalf("resume executed %d cells, want %d", got, drop)
	}
	if got := int(resStats.Cached.Load()); got != cells-drop {
		t.Fatalf("resume cached %d cells, want %d", got, cells-drop)
	}
	if !reflect.DeepEqual(coldRecs, resRecs) || coldOut != resOut {
		t.Fatalf("resumed sweep diverged:\n--- cold ---\n%s\n--- resumed ---\n%s", coldOut, resOut)
	}
}

// TestSweepFigureCacheParity runs the second grid shape (K panel +
// Θ panel) through the same contract at a smaller scope.
func TestSweepFigureCacheParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec{figure: "stest-sweep", model: "lenet5s", target: 0.5,
		strategies: []string{"LinearFDA"}}
	run := func(st *runstore.Store) ([]Record, string, *SweepStats) {
		var b strings.Builder
		stats := &SweepStats{}
		recs := sweepFigure(spec, Options{Scale: Tiny, Seed: 4, Out: &b, Jobs: 2, Store: st, Stats: stats})
		return recs, b.String(), stats
	}
	coldRecs, coldOut, coldStats := run(st)
	warmRecs, warmOut, warmStats := run(st)
	if warmStats.Executed.Load() != 0 || warmStats.Cached.Load() != coldStats.Cells.Load() {
		t.Fatalf("warm sweep stats: %d executed, %d cached",
			warmStats.Executed.Load(), warmStats.Cached.Load())
	}
	if !reflect.DeepEqual(coldRecs, warmRecs) || coldOut != warmOut {
		t.Fatalf("sweepFigure cache parity broken:\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}
}

// TestCellSpecDistinguishesCells: no two cells of a grid may share a
// content address, and sweep-level inputs must reach every cell spec.
func TestCellSpecDistinguishesCells(t *testing.T) {
	o := Options{Scale: Tiny, Seed: 3}
	a := o.cellSpec("fig3", "lenet5s", "LinearFDA", 0.05, 5, "iid", []float64{0.95}, 10)
	if a.Hash() != o.cellSpec("fig3", "lenet5s", "LinearFDA", 0.05, 5, "iid", []float64{0.95}, 10).Hash() {
		t.Fatal("identical cells hash differently")
	}
	o2 := o
	o2.Seed = 4
	if a.Hash() == o2.cellSpec("fig3", "lenet5s", "LinearFDA", 0.05, 5, "iid", []float64{0.95}, 10).Hash() {
		t.Fatal("sweep seed not part of the cell address")
	}
	o3 := o
	o3.Scale = Quick
	if a.Hash() == o3.cellSpec("fig3", "lenet5s", "LinearFDA", 0.05, 5, "iid", []float64{0.95}, 10).Hash() {
		t.Fatal("scale not part of the cell address")
	}
	if a.Hash() == o.cellSpec("fig4", "lenet5s", "LinearFDA", 0.05, 5, "iid", []float64{0.95}, 10).Hash() {
		t.Fatal("experiment not part of the cell address")
	}
}

// TestRegistry covers the shared runner index.
func TestRegistry(t *testing.T) {
	paper := PaperNames()
	if len(paper) != 12 || paper[0] != "table2" || paper[len(paper)-1] != "fig13" {
		t.Fatalf("paper runner names: %v", paper)
	}
	names := Names()
	if len(names) != len(paper)+3 || names[len(names)-3] != "smoke" || names[len(names)-1] != "thetasweep" {
		t.Fatalf("registry names: %v", names)
	}
	for _, name := range names {
		r, ok := Lookup(name)
		if !ok || r.Run == nil || r.Artifact == "" {
			t.Fatalf("runner %q incomplete: %+v ok=%v", name, r, ok)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("bogus experiment resolved")
	}
	if _, err := Run("fig99", Options{}); err == nil {
		t.Fatal("Run accepted a bogus experiment")
	}
	res, err := Run("table2", Options{Scale: Tiny})
	if err != nil || res == nil {
		t.Fatalf("Run(table2): %v %v", res, err)
	}
	for name, want := range map[string]Scale{"tiny": Tiny, "quick": Quick, "full": Full} {
		got, err := ParseScale(name)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("ParseScale accepted a bogus scale")
	}
}
