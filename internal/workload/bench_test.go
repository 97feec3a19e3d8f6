package workload

import (
	"bytes"
	"testing"

	"repro/internal/clock"
)

// The Workload series prices the load-generation machinery itself, so
// reports can separate client-side cost from server behavior: schedule
// expansion, trace serialization both ways, and the open-loop runner
// at full dispatch speed against a no-op target.

func benchSpec() Spec {
	return Spec{
		Arrival:     Arrival{Process: "poisson", Rate: 2000},
		DurationSec: 1,
		Seed:        7,
		Mix: []MixEntry{
			{Kind: KindTrain, Weight: 1, Train: &TrainTemplate{Model: "lenet5s", Strategy: "LinearFDA", Steps: 10, SeedBase: 1}},
			{Kind: KindStatus, Weight: 3},
			{Kind: KindStore, Weight: 1},
		},
	}
}

func BenchmarkWorkloadSchedule(b *testing.B) {
	spec := benchSpec()
	var n int
	for i := 0; i < b.N; i++ {
		reqs, err := spec.Schedule()
		if err != nil {
			b.Fatal(err)
		}
		n = len(reqs)
	}
	b.ReportMetric(float64(n), "requests")
}

func BenchmarkWorkloadTraceWrite(b *testing.B) {
	reqs, err := benchSpec().Schedule()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteTrace(&buf, TraceHeader{Source: "bench"}, reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
}

func BenchmarkWorkloadTraceRead(b *testing.B) {
	reqs, err := benchSpec().Schedule()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, TraceHeader{Source: "bench"}, reqs); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadTrace(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

type nopTarget struct{}

func (nopTarget) Do(Request) Outcome { return Outcome{Status: 200} }

func BenchmarkWorkloadRun(b *testing.B) {
	reqs, err := benchSpec().Schedule()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := Run(reqs, nopTarget{}, RunOptions{Clock: &clock.Virtual{}})
		if stats.OK != int64(len(reqs)) {
			b.Fatalf("ok = %d, want %d", stats.OK, len(reqs))
		}
	}
}
