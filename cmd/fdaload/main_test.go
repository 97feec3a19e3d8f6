package main

import (
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
// issued.
func TestRunRejectsEmptyAddr(t *testing.T) {
	reqs := []workload.Request{{Kind: workload.KindTrain}}
	for _, addr := range []string{"", ",", " , "} {
		stats, err := run(reqs, addr, &clock.Virtual{}, 1, 0, nil)
		if err == nil || !strings.Contains(err.Error(), "-addr") {
			t.Errorf("run with -addr %q: err = %v, want an -addr error", addr, err)
		}
		if stats.Issued != 0 {
			t.Errorf("run with -addr %q issued %d requests", addr, stats.Issued)
		}
	}
}
