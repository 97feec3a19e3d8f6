// Benchmarks regenerating every table and figure of the paper's
// evaluation at Tiny scale, plus ablation benches for the design choices
// called out in DESIGN.md §5. Each benchmark executes the corresponding
// experiment runner once per iteration and reports the headline
// quantities (median communication, steps) as custom metrics, so
// `go test -bench=. -benchmem` prints the reproduced series alongside
// timing. Run `cmd/fdaexp -scale quick|full` for denser grids.
//
// These are the only root benchmarks on purpose: they are the paper's
// artefacts — what they report is the reproduced result, not a speed.
// Everything that times the code (kernels, a local step, the fabric,
// telemetry, sweeps cold vs warm) is a metric of the one benchmark,
// `go run -C benchmark repro/benchmark` (BENCHMARK.json), and is not
// duplicated here.
package repro

import (
	"strconv"
	"testing"

	"repro/fda"
	"repro/internal/core"
	"repro/internal/experiments"
)

// benchOpts returns Tiny-scale options; seed fixed for comparability.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: experiments.Tiny, Seed: 1}
}

// reportClouds attaches per-strategy medians of (comm, steps) over
// reached runs to the benchmark output.
func reportClouds(b *testing.B, recs []experiments.Record) {
	b.Helper()
	type agg struct{ comm, steps, n float64 }
	sums := map[string]*agg{}
	for _, r := range recs {
		if !r.Reached {
			continue
		}
		a := sums[r.Strategy]
		if a == nil {
			a = &agg{}
			sums[r.Strategy] = a
		}
		a.comm += r.CommGB
		a.steps += float64(r.Steps)
		a.n++
	}
	for name, a := range sums {
		if a.n == 0 {
			continue
		}
		b.ReportMetric(a.comm/a.n*1e3, name+"_comm_MB/op")
		b.ReportMetric(a.steps/a.n, name+"_steps/op")
	}
}

func BenchmarkTable2Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2(benchOpts())
		if t.Len() != 5 {
			b.Fatal("table rows")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure3(benchOpts()))
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure4(benchOpts()))
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure5(benchOpts()))
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure6(benchOpts()))
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := experiments.Figure7(benchOpts())
		// Report the generalization gaps (paper: FDA ≈ 0, baselines > 0).
		for _, c := range curves {
			b.ReportMetric(c.Gap, c.Strategy+"_gap")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure8(benchOpts()))
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure9(benchOpts()))
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure10(benchOpts()))
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure11(benchOpts()))
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fits := experiments.Figure12(benchOpts())
		for _, f := range fits {
			b.ReportMetric(f.Slope*1e5, "slope_"+f.Setting+"_x1e5")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure13(benchOpts()))
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// ablationConfig is a small, fast shared workload.
func ablationConfig(seed uint64) fda.Config {
	spec, err := fda.ModelByName("lenet5s")
	if err != nil {
		panic(err)
	}
	train, test := fda.DatasetForModel(spec, seed)
	return fda.Config{
		K: 5, BatchSize: 32, Seed: seed,
		Model: spec.Build, Optimizer: spec.Optimizer,
		Train: train, Test: test,
		MaxSteps: 150, EvalEvery: 50,
	}
}

// BenchmarkAblationSketchSize sweeps the AMS sketch width, reporting sync
// counts and state traffic: wider sketches estimate variance more tightly
// (fewer syncs) at higher monitoring cost.
func BenchmarkAblationSketchSize(b *testing.B) {
	theta := 0.05
	for i := 0; i < b.N; i++ {
		for _, m := range []int{16, 64, 250} {
			s := core.NewSketchFDA(theta)
			s.L, s.M = 5, m
			res := fda.MustRun(ablationConfig(3), s)
			b.ReportMetric(float64(res.SyncCount), "syncs_m"+strconv.Itoa(m))
			b.ReportMetric(float64(res.StateBytes)/1e6, "stateMB_m"+strconv.Itoa(m))
		}
	}
}

// BenchmarkAblationXi compares LinearFDA's ξ heuristics: the paper's
// drift direction vs a random unit vector vs no deflation at all.
func BenchmarkAblationXi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mode := range []string{"drift", "random", "zero"} {
			l := core.NewLinearFDA(0.05)
			l.XiMode = mode
			res := fda.MustRun(ablationConfig(4), l)
			b.ReportMetric(float64(res.SyncCount), "syncs_"+mode)
		}
	}
}

// BenchmarkAblationCostModel contrasts ring vs naive AllReduce
// accounting on identical trajectories.
func BenchmarkAblationCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ring := range []bool{true, false} {
			cfg := ablationConfig(5)
			cfg.Cost = fda.CostModel{BytesPerParam: 4, Ring: ring}
			res := fda.MustRun(cfg, fda.NewLinearFDA(0.05))
			name := "naive"
			if ring {
				name = "ring"
			}
			b.ReportMetric(float64(res.CommBytes)/1e6, "commMB_"+name)
		}
	}
}

// BenchmarkAblationOracle measures how many extra synchronizations the
// deployable estimators pay relative to exact variance monitoring.
func BenchmarkAblationOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range []fda.Strategy{
			fda.NewOracleFDA(0.05), fda.NewSketchFDA(0.05), fda.NewLinearFDA(0.05),
		} {
			res := fda.MustRun(ablationConfig(6), s)
			b.ReportMetric(float64(res.SyncCount), "syncs_"+res.Strategy)
		}
	}
}

// BenchmarkAblationCompression composes top-k and quantization codecs
// with FDA's synchronization step (the paper's §2 compatibility claim).
func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			name  string
			codec fda.Codec
		}{
			{"dense", nil},
			{"top10", fda.TopK{Fraction: 0.1}},
			{"q8", fda.Quantize{Bits: 8}},
		} {
			cfg := ablationConfig(7)
			cfg.SyncCodec = c.codec
			res := fda.MustRun(cfg, fda.NewLinearFDA(0.05))
			b.ReportMetric(float64(res.ModelBytes)/1e6, "modelMB_"+c.name)
			b.ReportMetric(res.FinalTestAcc, "acc_"+c.name)
		}
	}
}
