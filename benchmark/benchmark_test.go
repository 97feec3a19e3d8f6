package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose; must not be modified
	for _, c := range []struct{ q, want float64 }{
		{0.25, 10}, {0.26, 20}, {0.50, 20}, {0.75, 30}, {0.76, 40}, {1, 40}, {1e-9, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{40, 10, 30, 20}) {
		t.Errorf("quantile modified its input: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// Few segments: the quiet decile is the quietest one. Thirty: the
	// third quietest.
	if got := quietLow([]float64{5.4, 5.2, 6.1}); got != 5.2 {
		t.Errorf("quietLow of three = %v, want the minimum", got)
	}
	if got := quietHigh([]float64{5.4, 5.2, 6.1}); got != 6.1 {
		t.Errorf("quietHigh of three = %v, want the maximum", got)
	}
	thirty := make([]float64, 30)
	for i := range thirty {
		thirty[i] = float64(30 - i)
	}
	if lo, hi := quietLow(thirty), quietHigh(thirty); lo != 3 || hi != 27 {
		t.Errorf("quiet decile of 1..30 = %v / %v, want 3 / 27", lo, hi)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {19, 0.50}, {20, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{1000, 0.99}, {1100, 0.99}, {10000, 0.999},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - int(math.Ceil(got*float64(c.n))); beyond < 10 {
				t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestPyQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("pyQuartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = pyQuartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("pyQuartiles(1,2,4,8,16) = %v %v %v", q1, q2, q3)
	}
}

func TestSegmenter(t *testing.T) {
	if got := segmentCount(12, 0.37, 4); got != 32 {
		t.Errorf("segmentCount(12, 0.37) = %d, want 32", got)
	}
	if got := segmentCount(1, 7.5, 2); got != 2 {
		t.Errorf("segmentCount below the minimum = %d, want 2", got)
	}
	// Four equal-work segments, three of them slowed by a neighbour: the
	// estimators read the quiet one, the wall number reads everything.
	segs := []segment{
		{wallSec: 1.25, samples: 1000, opMs: []float64{12, 13, 12}},
		{wallSec: 1.0, samples: 1000, opMs: []float64{10, 11, 10}},
		{wallSec: 1.5, samples: 1000, opMs: []float64{15, 14, 16}},
		{wallSec: 1.25, samples: 1000, opMs: []float64{12, 12, 14}},
	}
	sum := summarizePhase(segs)
	if sum.samplesPerSec != 1000 {
		t.Errorf("samplesPerSec = %v, want 1000 (the slowed segments must not count)", sum.samplesPerSec)
	}
	if sum.opP50Ms != 10 {
		t.Errorf("opP50Ms = %v, want 10", sum.opP50Ms)
	}
	if sum.wallSamplesPerSec != 800 {
		t.Errorf("wallSamplesPerSec = %v, want 800", sum.wallSamplesPerSec)
	}
	if sum.ops != 12 || sum.wallSec != 5 {
		t.Errorf("ops=%d wallSec=%v", sum.ops, sum.wallSec)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// A 100 ns step with a 30 ns strategy holding a 10 ns collective, and
	// two optimizer steps on parallel lanes that overlap each other.
	spans := []span{
		{Name: "step", ID: 1, Start: 0, End: 100},
		{Name: "opt.step", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "opt.step", ID: 3, Parent: 1, Start: 20, End: 40},
		{Name: "strategy", ID: 4, Parent: 1, Start: 60, End: 90},
		{Name: "comm.state", ID: 5, Parent: 4, Start: 70, End: 80},
		// A child that leaks past its parent is clipped to it.
		{Name: "comm.gather", ID: 6, Parent: 1, Start: 95, End: 120},
	}
	agg := aggregate(spans)
	if got := agg["step"]; got.Count != 1 || got.TotalNs != 100 || got.SelfNs != 100-30-30-5 {
		t.Errorf("step = %+v, want total 100 self 35 (children cover [10,40) ∪ [60,90) ∪ [95,100))", got)
	}
	if got := agg["strategy"]; got.TotalNs != 30 || got.SelfNs != 20 {
		t.Errorf("strategy = %+v, want total 30 self 20", got)
	}
	if got := agg["opt.step"]; got.Count != 2 || got.TotalNs != 40 || got.SelfNs != 40 {
		t.Errorf("opt.step = %+v, want 2 spans, total = self = 40", got)
	}
	if got := agg["opt.step"].meanMs(); got != 20.0/1e6 {
		t.Errorf("opt.step mean = %v ms", got)
	}
}

func TestTracerRecordsOnlyWhileOn(t *testing.T) {
	tr := newTracer()
	l := tr.newLane()
	if i, id := l.begin("off"); i != -1 || id != 0 {
		t.Fatalf("begin while off = (%d, %d), want (-1, 0)", i, id)
	}
	l.end(-1) // must be a no-op
	tr.on.Store(true)
	i, id := l.beginUnder("step", 0, 7)
	tr.cur.Store(id)
	j, _ := tr.newLane().begin("child")
	l.end(i)
	tr.lanes[1].end(j)
	spans := tr.all()
	if len(spans) != 2 || spans[1].Parent != id || spans[1].Op != 0 || spans[0].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	dir := t.TempDir()
	if err := writeChromeTrace(dir+"/x/trace.json", spans); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(dir + "/x/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Fatalf("trace file: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	ops := func(seed uint64) []byte {
		b, err := json.Marshal(serveSegmentOps(seed, "seg3"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(ops(7)) != string(ops(7)) {
		t.Error("serve_mix op list differs between two builds from one seed")
	}
	if string(ops(7)) == string(ops(8)) {
		t.Error("serve_mix op list ignores the seed")
	}
	if a, b := serveSegmentOps(7, "seg3"), serveSegmentOps(7, "seg4"); reflect.DeepEqual(a, b) {
		t.Error("two segments of one run submit the same specs")
	}
	list := serveSegmentOps(7, "seg0")
	kinds := map[string]int{}
	for _, op := range list {
		kinds[op.Kind]++
	}
	want := map[string]int{"train": 8, "resubmit": 2, "sweep": 1, "records": 1, "runs": 1, "store": 1}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("segment composition = %v, want %v", kinds, want)
	}

	if !reflect.DeepEqual(trainComputeSpec(7, 100), trainComputeSpec(7, 100)) ||
		!reflect.DeepEqual(distSpec(7, "LinearFDA", 100), distSpec(7, "LinearFDA", 100)) {
		t.Error("job spec differs between two builds from one seed")
	}
	if trainComputeSpec(7, 100).Seed == trainComputeSpec(8, 100).Seed ||
		distSpec(7, "LinearFDA", 100).Seed == distSpec(8, "LinearFDA", 100).Seed {
		t.Error("job spec ignores the seed")
	}
	// dist_sync and dist_fda run the same model, data and batches.
	s, f := distSpec(7, "Synchronous", 100), distSpec(7, "LinearFDA", 100)
	s.Strategy = f.Strategy
	if !reflect.DeepEqual(s, f) {
		t.Errorf("dist_sync and dist_fda differ in more than the strategy: %+v vs %+v", s, f)
	}
	if deriveSeed(0, "x") == 0 || deriveSeed(1, "a") == deriveSeed(1, "b") || deriveSeed(1, "a") >= 1<<53 {
		t.Error("deriveSeed must be non-zero, label-dependent and below 2^53")
	}
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		cand   []float64
		lower  bool
		bound  float64
		expect string
	}{
		{"same", []float64{100, 100, 101, 99, 101}, true, 0.08, "within"},
		{"slower latency", []float64{120, 121, 119, 122, 120}, true, 0.08, "worse"},
		{"faster latency", []float64{80, 81, 79, 82, 80}, true, 0.08, "better"},
		{"higher throughput", []float64{120, 121, 119, 122, 120}, false, 0.08, "better"},
		{"lower throughput", []float64{80, 81, 79, 82, 80}, false, 0.08, "worse"},
		{"noisy candidate", []float64{70, 100, 130, 101, 99}, true, 0.08, "unresolved"},
		{"slightly but always better", []float64{97, 98, 98.5, 97.5, 98}, true, 0.08, "better"},
	} {
		row := comparison{Bound: c.bound}
		row.judge(base, c.cand, c.lower)
		if row.Verdict != c.expect {
			t.Errorf("%s: verdict %q, want %q", c.name, row.Verdict, c.expect)
		}
	}
}

func TestCompareFlagsChangedCounts(t *testing.T) {
	run := func(seed uint64, sps, bytes float64) runRecord {
		return runRecord{Workload: "dist_fda", Seed: seed, Metrics: map[string]metricValue{
			"samples_per_s": {sps, "1/s"},
		}, Counts: map[string]float64{"comm_bytes": bytes}}
	}
	a := []runRecord{run(1, 100, 5000), run(2, 101, 6000)}
	same := []runRecord{run(1, 100.5, 5000), run(2, 100.2, 6000)}
	changed := []runRecord{run(1, 100.5, 5000), run(2, 100.2, 6001)}
	if rows := compareRuns(a, same); len(rows) != 1 || rows[0].countsChanged != 0 || rows[0].countsSeeds != 2 {
		t.Errorf("identical counts: %+v", rows)
	}
	if rows := compareRuns(a, changed); len(rows) != 1 || rows[0].countsChanged != 1 {
		t.Errorf("changed count not flagged: %+v", rows)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the PR
// driver reads, identical to the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the module: %v", err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v vs %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			sawSetup = true
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v > %v", o.Name, o.Bound, d.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: %+v vs %+v", i, got, d)
		}
	}
}

// TestPlumbingSmoke runs the in-process workloads at 1/100 of their
// size, untraced and traced, to prove the plumbing — sessions, TCP
// clusters, registry passes, decorators, probes, parity checks — end
// to end. It measures nothing.
func TestPlumbingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small workloads; skipped with -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Skip(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, name := range []string{"train_compute", "dist_sync", "dist_fda", "sweep_store"} {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, traced := range []bool{false, true} {
			rc := runConfig{root: root, seed: 3, segs: 2, setups: 1, scale: 100}
			if traced {
				rc.tr = newTracer()
			}
			out, err := w.run(ctx, rc)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			if len(out.faults) != 0 || out.failed != 0 {
				t.Errorf("%s (traced=%v): faults %v, %d failed ops", name, traced, out.faults, out.failed)
			}
			if len(out.segs) != 2 || out.samples <= 0 || out.attempted == 0 || len(out.setupSec) != 1 {
				t.Errorf("%s (traced=%v): %d segments, %d samples, %d ops, %d set-ups",
					name, traced, len(out.segs), out.samples, out.attempted, len(out.setupSec))
			}
			if traced {
				if len(rc.tr.all()) == 0 {
					t.Errorf("%s: traced pass recorded no span", name)
				}
				for _, key := range []string{"nn.lossgrad_ms", "checkpoint.bytes", "runstore.put_ms"} {
					if out.layer[key] <= 0 {
						t.Errorf("%s: probe %s = %v", name, key, out.layer[key])
					}
				}
			}
		}
	}
}
