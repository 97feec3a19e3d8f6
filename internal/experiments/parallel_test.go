package experiments

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/par"
	"repro/internal/runstore"
)

// TestRunGridCoverageAndOrder pins the dispatch contract sweeps rely
// on: every cell runs exactly once and results land in grid order, at
// any jobs setting.
func TestRunGridCoverageAndOrder(t *testing.T) {
	specs := make([]runstore.Spec, 37)
	for i := range specs {
		specs[i] = Options{Scale: Tiny, Seed: 1}.cellSpec(
			"gridtest", "lenet5s", "LinearFDA", 0.05, 5, "iid", []float64{0.9}, uint64(i))
	}
	for _, jobs := range []int{0, 1, 3, 8, -1} {
		var calls atomic.Int64
		got := runGrid(Options{Jobs: jobs}, specs, func(i int) []int {
			calls.Add(1)
			return []int{i * i}
		})
		if calls.Load() != int64(len(specs)) {
			t.Fatalf("jobs=%d: %d calls for %d cells", jobs, calls.Load(), len(specs))
		}
		for i, v := range got {
			if len(v) != 1 || v[0] != i*i {
				t.Fatalf("jobs=%d: slot %d holds %v", jobs, i, v)
			}
		}
	}
	if out := runGrid(Options{Jobs: 4}, nil, func(int) []int { return nil }); len(out) != 0 {
		t.Fatalf("empty grid produced %v", out)
	}
}

// parityCloudSpec is a two-cell grid cheap enough to run several times:
// the low target is reached within the first evaluations.
func parityCloudSpec() cloudSpec {
	return cloudSpec{
		figure:     "ptest",
		model:      "lenet5s",
		hets:       []data.Heterogeneity{data.IID()},
		targets:    []float64{0.5},
		strategies: []string{"LinearFDA", "Synchronous"},
	}
}

// TestCloudFigureParallelParity is the sweep-level determinism contract:
// records AND the rendered table must be byte-identical between Jobs=1
// and Jobs=4, and two parallel sweeps must agree with each other.
func TestCloudFigureParallelParity(t *testing.T) {
	run := func(jobs int) ([]Record, string) {
		var b strings.Builder
		recs := cloudFigure(parityCloudSpec(), Options{Scale: Tiny, Seed: 3, Out: &b, Jobs: jobs})
		return recs, b.String()
	}
	seqRecs, seqOut := run(1)
	parRecs, parOut := run(4)
	if !reflect.DeepEqual(seqRecs, parRecs) {
		t.Fatalf("parallel sweep records diverged:\nseq: %+v\npar: %+v", seqRecs, parRecs)
	}
	if seqOut != parOut {
		t.Fatalf("rendered output diverged:\n--- seq ---\n%s\n--- par ---\n%s", seqOut, parOut)
	}
	againRecs, againOut := run(4)
	if !reflect.DeepEqual(parRecs, againRecs) || parOut != againOut {
		t.Fatal("two parallel sweeps diverged from each other")
	}
}

// TestSweepFigureParallelParity covers the second grid shape (K panel +
// Θ panel) through the same contract.
func TestSweepFigureParallelParity(t *testing.T) {
	spec := sweepSpec{figure: "ptest-sweep", model: "lenet5s", target: 0.5,
		strategies: []string{"LinearFDA"}}
	run := func(jobs int) ([]Record, string) {
		var b strings.Builder
		recs := sweepFigure(spec, Options{Scale: Tiny, Seed: 4, Out: &b, Jobs: jobs})
		return recs, b.String()
	}
	seqRecs, seqOut := run(1)
	parRecs, parOut := run(5)
	if !reflect.DeepEqual(seqRecs, parRecs) {
		t.Fatalf("sweep records diverged:\nseq: %+v\npar: %+v", seqRecs, parRecs)
	}
	if seqOut != parOut {
		t.Fatalf("sweep output diverged:\n--- seq ---\n%s\n--- par ---\n%s", seqOut, parOut)
	}
}

// TestParallelSweepSpeedup asserts the acceptance criterion — ≥2× wall
// clock with Jobs ≥ 4 on a multicore runner — over a grid of independent
// Tiny cells. The sequential baseline runs under GOMAXPROCS(1): at
// Jobs: 1 a cell's session would otherwise take every core the budget
// has free. It self-skips on machines without enough cores (the
// cells would just time-slice) and in -short mode.
func TestParallelSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts wall-clock ratios")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("needs ≥4 CPUs, have %d", procs)
	}
	spec := cloudSpec{
		figure:     "speedup",
		model:      "lenet5s",
		hets:       []data.Heterogeneity{data.IID(), data.NonIIDPercent(60)},
		targets:    []float64{0.93},
		strategies: []string{"LinearFDA", "SketchFDA", "FedAdam", "Synchronous"},
	}
	run := func(jobs int) time.Duration {
		start := time.Now()
		cloudFigure(spec, Options{Scale: Tiny, Seed: 8, Jobs: jobs})
		return time.Since(start)
	}
	run(procs) // warm caches so the timed pair compares like with like
	seq := func() time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return run(1)
	}()
	wide := run(procs)
	t.Logf("sequential %v, %d jobs %v (%.2fx)", seq, procs, wide, seq.Seconds()/wide.Seconds())
	if wide*2 > seq {
		t.Fatalf("speedup %.2fx < 2x (seq %v, par %v)", seq.Seconds()/wide.Seconds(), seq, wide)
	}
}

// TestSweepParityAcrossGOMAXPROCS pins the core budget end to end. At
// Jobs: 1 a cell's session may take every core, so GOMAXPROCS 1 and 4
// run the same cells at widths 1 and up to 4; the seeded passes then
// draw every call's width at random (par.SeedWidths), for the cell pool
// at Jobs 1 and 2 and for every session inside it. Records and rendered
// output must be byte-identical for thetasweep through a fresh store —
// its cold cells and the warm ones restoring their siblings' prefixes —
// for netsweep including its virtual clock, and for a cloud figure.
// Snapshot hits and steps saved must match too at Jobs 1; at Jobs 2
// they depend on which sibling publishes a prefix first.
func TestSweepParityAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type pass struct {
		name, out, recs string
		hits, saved     int64
	}
	run := func(procs, jobs int, seed uint64) []pass {
		runtime.GOMAXPROCS(procs)
		if seed != 0 {
			defer par.SeedWidths(seed)()
		}
		var ps []pass
		for _, exp := range []string{"thetasweep", "netsweep", "smoke"} {
			var b strings.Builder
			stats := &SweepStats{}
			res, err := Run(exp, Options{Scale: Tiny, Seed: 2, Out: &b, Jobs: jobs, Stats: stats,
				Store: testStore(t), Warm: exp == "thetasweep"})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d jobs=%d %s: %v", procs, jobs, exp, err)
			}
			body, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, pass{exp, b.String(), string(body),
				stats.SnapshotHits.Load(), stats.StepsSaved.Load()})
		}
		return ps
	}
	narrow := run(1, 1, 0)
	for _, c := range []struct {
		name        string
		procs, jobs int
		seed        uint64
	}{
		{"GOMAXPROCS 4", 4, 1, 0},
		{"seeded widths, Jobs 1", 4, 1, 11},
		{"seeded widths, Jobs 2", 4, 2, 12},
	} {
		for i, w := range run(c.procs, c.jobs, c.seed) {
			n := narrow[i]
			if c.jobs > 1 {
				w.hits, w.saved = n.hits, n.saved
			}
			if n != w {
				t.Errorf("%s: %s diverged from GOMAXPROCS 1:\n--- 1 ---\n%+v\n--- %s ---\n%+v", c.name, n.name, n, c.name, w)
			}
		}
	}
	if warm := narrow[0]; warm.hits == 0 || warm.saved == 0 {
		t.Fatalf("warm thetasweep restored nothing: %d hits, %d steps saved", warm.hits, warm.saved)
	}
}
