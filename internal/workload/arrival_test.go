package workload

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// Arrival-process statistics are exact functions of the seed, so the
// tests can assert tight tolerances without flake: a "statistical"
// bound here is really a regression pin on the generator.

func TestPoissonMeanRate(t *testing.T) {
	a := Arrival{Process: "poisson", Rate: 200}
	const durSec = 60.0
	times := a.Times(tensor.NewRNG(7), int64(durSec*1e9))
	want := a.Rate * durSec
	got := float64(len(times))
	// 5 sigma of a Poisson count: deterministic seed, so this either
	// passes forever or the generator changed.
	if sigma := math.Sqrt(want); math.Abs(got-want) > 5*sigma {
		t.Fatalf("poisson count %v, want %v +/- %v", got, want, 5*sigma)
	}
	checkMonotone(t, times, int64(durSec*1e9))
}

func checkMonotone(t *testing.T, times []int64, durNS int64) {
	t.Helper()
	if len(times) == 0 {
		t.Fatal("no arrivals generated")
	}
	prev := int64(-1)
	for i, ts := range times {
		if ts < prev {
			t.Fatalf("arrival %d at %dns before predecessor %dns", i, ts, prev)
		}
		if ts < 0 || ts >= durNS {
			t.Fatalf("arrival %d at %dns outside [0, %dns)", i, ts, durNS)
		}
		prev = ts
	}
}

func TestArrivalValidate(t *testing.T) {
	cases := []Arrival{
		{Process: "poisson", Rate: 0},
		{Process: "warp", Rate: 1},
	}
	for i, a := range cases {
		if err := a.validate(); err == nil {
			t.Errorf("case %d (%+v): validate accepted an invalid arrival", i, a)
		}
	}
}
