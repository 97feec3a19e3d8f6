package main

import (
	"context"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/fda"
	"repro/internal/runstore"
)

// parse is parseFlags from a clean slate: every flag back at its
// default first, so cases do not inherit each other's settings.
func parse(args ...string) error {
	fs.VisitAll(func(f *flag.Flag) { f.Value.Set(f.DefValue) })
	return parseFlags(args)
}

// TestFlagsToResultGolden pins the flag surface → dist.JobSpec →
// Config/Strategy path bit-for-bit against goldens captured from the
// inline Config builder this binary had before it shared the spec with
// fdaserve and the workers: the summary line, and the exact byte split,
// sync count and accuracy bits behind it. The cases cover the Θ
// default (no -theta), a non-IID split and a τ-scheduled baseline; the
// last two were captured from the dense path when the sync codec flags
// went.
func TestFlagsToResultGolden(t *testing.T) {
	cases := []struct {
		args               []string
		summary            string
		comm, state, model int64
		syncs              int
		accBits            uint64
	}{
		{args: []string{"-model", "lenet5s", "-strategy", "LinearFDA", "-k", "3", "-steps", "60"},
			summary: "LinearFDA: steps=60 epochs=2.4 comm=0.000GB (state 0.000, model 0.000) syncs=3 acc=0.4550 target=false",
			comm:    127458, state: 1800, model: 125658, syncs: 3, accBits: 0x3fdd1eb851eb851f},
		{args: []string{"-model", "lenet5s", "-strategy", "FedAvgM", "-k", "3", "-steps", "60", "-het", "label0"},
			summary: "FedAvgM: steps=60 epochs=2.4 comm=0.000GB (state 0.000, model 0.000) syncs=2 acc=0.2200 target=false",
			comm:    83772, state: 0, model: 83772, syncs: 2, accBits: 0x3fcc28f5c28f5c29},
		{args: []string{"-model", "lenet5s", "-strategy", "LocalSGD", "-tau", "5", "-k", "2", "-steps", "40", "-seed", "7"},
			summary: "LocalSGD(τ=5): steps=40 epochs=1.1 comm=0.000GB (state 0.000, model 0.000) syncs=8 acc=0.3033 target=false",
			comm:    167552, state: 0, model: 167552, syncs: 8, accBits: 0x3fd369d0369d036a},
	}
	for _, c := range cases {
		parse(c.args...)
		if want := 0.052360000000000004; spec.Theta != want { // lenet5s ThetaGrid[1]
			t.Errorf("%v: Θ default resolved to %v, want %v", c.args, spec.Theta, want)
		}
		cfg, err := spec.BuildConfig()
		if err != nil {
			t.Fatal(err)
		}
		strat, err := spec.BuildStrategy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := fda.MustRun(cfg, strat)
		if got := res.String(); got != c.summary {
			t.Errorf("%v:\n got %s\nwant %s", c.args, got, c.summary)
		}
		if res.CommBytes != c.comm || res.StateBytes != c.state || res.ModelBytes != c.model ||
			res.SyncCount != c.syncs || math.Float64bits(res.FinalTestAcc) != c.accBits {
			t.Errorf("%v: comm=%d state=%d model=%d syncs=%d accbits=%#x, want %d %d %d %d %#x", c.args,
				res.CommBytes, res.StateBytes, res.ModelBytes, res.SyncCount, math.Float64bits(res.FinalTestAcc),
				c.comm, c.state, c.model, c.syncs, c.accBits)
		}
	}
}

// runMain runs the binary's main on args from a clean flag slate and
// returns what it printed to stdout.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	fs.VisitAll(func(f *flag.Flag) { f.Value.Set(f.DefValue) })
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, osArgs := os.Stdout, os.Args
	os.Stdout, os.Args = out, append([]string{"fdarun"}, args...)
	defer func() { os.Stdout, os.Args = stdout, osArgs }()
	main()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAsyncFlagsGolden pins what `fdarun -async` prints: the summary
// line and the per-worker steps with the virtual clock, for the linear
// estimator at equal speeds and the sketch estimator behind stragglers.
// -store runs async cold (it shares no prefixes), and -scenario
// paces its workers by the scenario's compute and link times.
func TestAsyncFlagsGolden(t *testing.T) {
	equal := []string{
		"AsyncFDA: steps=40 epochs=1.6 comm=0.000GB (state 0.000, model 0.000) syncs=2 acc=0.3317 target=false",
		"per-worker steps: [40 40 40]  virtual time: 40.0",
	}
	cases := []struct {
		args  []string
		lines []string
	}{
		{args: []string{"-model", "lenet5s", "-k", "3", "-steps", "40", "-async"}, lines: equal},
		{args: []string{"-model", "lenet5s", "-k", "3", "-steps", "40", "-async", "-store", t.TempDir()},
			lines: equal},
		{args: []string{"-model", "lenet5s", "-k", "3", "-steps", "40", "-async", "-scenario", "fedwan"},
			lines: []string{
				"AsyncFDA: steps=59 epochs=1.6 comm=0.000GB (state 0.000, model 0.000) syncs=3 acc=0.3167 target=false",
				"per-worker steps: [31 59 30]  virtual time: 3.7",
			}},
		{args: []string{"-model", "lenet5s", "-strategy", "SketchFDA", "-k", "5", "-steps", "40",
			"-async", "-speeds", "1,1,1,0.5,0.25"},
			lines: []string{
				"AsyncSketchFDA: steps=54 epochs=2.7 comm=0.001GB (state 0.001, model 0.000) syncs=2 acc=0.3050 target=false",
				"per-worker steps: [54 54 53 26 13]  virtual time: 54.0",
			}},
	}
	for _, c := range cases {
		out := runMain(t, c.args...)
		for _, line := range c.lines {
			if !strings.Contains(out, line+"\n") {
				t.Errorf("%v: output lacks the line %q:\n%s", c.args, line, out)
			}
		}
	}
}

// TestSpeedsFlagRefusals: -speeds needs -async, excludes -scenario and
// takes exactly one speed per worker; a list of another length is
// refused, not truncated or repeated.
func TestSpeedsFlagRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-k", "3", "-async", "-speeds", "1,1,1,0.5,0.25"},
		{"-k", "5", "-async", "-speeds", "1,0.5"},
		{"-k", "3", "-speeds", "1,1,0.5"},
		{"-k", "3", "-async", "-speeds", "1,1,0.5", "-scenario", "lan"},
	} {
		parse(args...)
		if _, err := simulatedNetwork(); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	parse("-k", "3", "-async", "-speeds", "1,1,0.5")
	if _, err := simulatedNetwork(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecFlagRefusals: a bad spec flag is an error from parseFlags,
// which main prints before anything runs, not a panic in a strategy
// constructor.
func TestSpecFlagRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-strategy", "LocalSGD", "-tau", "-1"},
		{"-strategy", "LinearFDA", "-tau", "-1"},
		{"-strategy", "LinearFDA", "-theta", "-1"},
		{"-strategy", "Nope"},
	} {
		if err := parse(args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if err := parse("-strategy", "LocalSGD", "-tau", "5"); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartFlagPath drives -store the way main does: the first
// run publishes prefixes at the session's evaluation cadence, a second
// run with a larger Θ restores the longest of them, and both land on
// the bits of a cold run.
func TestWarmStartFlagPath(t *testing.T) {
	dir := t.TempDir()
	run := func(theta string, warm bool) fda.Result {
		parse("-model", "lenet5s", "-strategy", "LinearFDA", "-theta", theta,
			"-k", "3", "-steps", "80", "-store", dir)
		cfg, err := spec.BuildConfig()
		if err != nil {
			t.Fatal(err)
		}
		strat, err := spec.BuildStrategy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := fda.NewSession(context.Background(), cfg, strat)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			if err := warmStart(sess, strat); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if cold, warm := run("0.4", false), run("0.4", true); !reflect.DeepEqual(cold, warm) {
		t.Fatal("publishing run diverged from the cold run")
	}
	published := func() []int {
		st, err := runstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := st.Snapshots()
		if err != nil {
			t.Fatal(err)
		}
		var steps []int
		for _, m := range ms {
			steps = append(steps, m.Steps)
		}
		return steps
	}
	// Prefixes sit on the EvalEvery=20 grid: Θ=0.4 first synchronizes
	// before step 40, Θ=0.8 (restoring step 20) before step 60.
	if got, want := published(), []int{20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first run published prefixes at steps %v, want %v", got, want)
	}
	if cold, warm := run("0.8", false), run("0.8", true); !reflect.DeepEqual(cold, warm) {
		t.Fatal("restoring run diverged from the cold run")
	}
	if got, want := published(), []int{20, 40}; !reflect.DeepEqual(got, want) {
		t.Fatalf("second run left prefixes at steps %v, want %v", got, want)
	}
}
