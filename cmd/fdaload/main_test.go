package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/workload"
)

func TestCheckReport(t *testing.T) {
	load := func(issued, ok, rejected, errs int64) workload.Report {
		return workload.Report{Load: workload.RunStats{Issued: issued, OK: ok, Rejected: rejected, Errors: errs}}
	}
	cases := []struct {
		name        string
		rep         workload.Report
		maxRejected float64
		wantErr     string // "" = passes
	}{
		{"clean run", load(100, 100, 0, 0), 1, ""},
		{"zero ok", load(100, 0, 100, 0), 1, "throughput is zero"},
		{"nothing issued", load(0, 0, 0, 0), 1, "throughput is zero"},
		{"unexpected errors", load(100, 99, 0, 1), 1, "1 unexpected errors"},
		{"errors outrank zero ok", load(10, 0, 0, 10), 1, "10 unexpected errors"},
		{"shed load, unbounded", load(100, 10, 90, 0), 1, ""},
		{"rejections below the bound", load(100, 80, 20, 0), 0.25, ""},
		{"rejections at the bound", load(100, 75, 25, 0), 0.25, ""},
		{"rejections above the bound", load(100, 70, 30, 0), 0.25, "rejection rate 0.300 exceeds -max-rejected 0.250"},
		{"any rejection at bound zero", load(100, 99, 1, 0), 0, "rejection rate 0.010"},
	}
	for _, c := range cases {
		err := checkReport(c.rep, c.maxRejected)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected failure: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}

// An -addr with no base URL in it used to reach the runner and divide
// by zero in its goroutines; it must be refused before any request is
// issued, and so must a list of several (fdagate spreads load across
// replicas).
func TestRunRejectsEmptyAddr(t *testing.T) {
	reqs := []workload.Request{{Kind: workload.KindTrain}}
	for _, addr := range []string{"", ",", " , ", "http://a:1,http://b:2"} {
		stats, err := run(reqs, addr, &clock.Virtual{}, 1, 0, nil)
		if err == nil || !strings.Contains(err.Error(), "-addr") {
			t.Errorf("run with -addr %q: err = %v, want an -addr error", addr, err)
		}
		if stats.Issued != 0 {
			t.Errorf("run with -addr %q issued %d requests", addr, stats.Issued)
		}
	}
}

// TestSourceNeedsOneInput: fdaload issues either a spec file's schedule
// or a recorded trace, and refuses to guess when given neither or both;
// a spec file with a misspelled key is refused with the key named.
func TestSourceNeedsOneInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	spec := `{"arrival":{"process":"poisson","rate":40},"duration_sec":2,"seed":1,` +
		`"mix":[{"kind":"status","weight":4}],"durration_sec":9}`
	if err := os.WriteFile(bad, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		specFile, replay string
		want             []string
	}{
		{"", "", []string{"-spec", "-replay"}},
		{bad, "trace.jsonl", []string{"-spec", "-replay"}},
		{bad, "", []string{bad, `"durration_sec"`}},
	} {
		reqs, _, _, err := source(c.specFile, c.replay)
		if err == nil || reqs != nil {
			t.Errorf("source(%q, %q) = %d requests, err %v; want a refusal", c.specFile, c.replay, len(reqs), err)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("source(%q, %q): err %q does not name %s", c.specFile, c.replay, err, w)
			}
		}
	}
}
