package models

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// sameSpec reports whether a and b are copies of one cached spec: equal
// fields, equal Θ grids and the very same builder and optimizer closures.
func sameSpec(a, b Spec) bool {
	fn := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	return a.Name == b.Name && a.PaperModel == b.PaperModel && a.PaperParams == b.PaperParams &&
		a.Dataset == b.Dataset && a.OptimizerName == b.OptimizerName && a.Params == b.Params &&
		a.Algorithms == b.Algorithms && slices.Equal(a.ThetaGrid, b.ThetaGrid) &&
		fn(a.Build) == fn(b.Build) && fn(a.Optimizer) == fn(b.Optimizer)
}

// TestCatalogFirstCallRace races the process's first catalog lookup from
// eight goroutines; under -race it is the gate for the build-once
// initialization. It is the package's first test, so in a full run the
// catalog is still unbuilt when it starts.
func TestCatalogFirstCallRace(t *testing.T) {
	const goroutines = 8
	got := make([][]Spec, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := range goroutines {
		go func() {
			defer wg.Done()
			got[g] = Catalog()
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range got[0] {
			if !sameSpec(got[g][i], got[0][i]) {
				t.Fatalf("goroutine %d got a different %s spec", g, got[0][i].Name)
			}
		}
	}
}

// TestByNameAllocs pins the cached lookup: once the catalog is built,
// ByName costs one allocation (the Θ-grid copy), not a rebuild of the
// zoo's five networks.
func TestByNameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	if _, err := ByName("lenet5s"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = ByName("lenet5s") }); n > 1 {
		t.Fatalf("ByName allocates %v times per call, want at most 1", n)
	}
}

// TestCatalogReturnsCopies checks that a caller editing a returned Θ
// grid changes neither a later ByName nor a later Catalog result.
func TestCatalogReturnsCopies(t *testing.T) {
	// An own copy of the grid, so the check holds even if ByName were
	// to hand out the cached slice.
	want, _ := ByName("lenet5s")
	want.ThetaGrid = slices.Clone(want.ThetaGrid)

	s, _ := ByName("lenet5s")
	s.ThetaGrid[1] = -1
	Catalog()[0].ThetaGrid[2] = -1

	again, _ := ByName("lenet5s")
	if !slices.Equal(again.ThetaGrid, want.ThetaGrid) {
		t.Fatalf("ByName Θ grid %v after caller edits, want %v", again.ThetaGrid, want.ThetaGrid)
	}
	if cat := Catalog(); !slices.Equal(cat[0].ThetaGrid, want.ThetaGrid) {
		t.Fatalf("Catalog Θ grid %v after caller edits, want %v", cat[0].ThetaGrid, want.ThetaGrid)
	}
}
