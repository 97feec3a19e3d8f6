package workload

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Arrival names a stochastic arrival process and its parameters. The
// process is generated by inversion from the seeded tensor.RNG — no
// rejection or thinning — so a given (Arrival, seed, duration) triple
// consumes a deterministic prefix of the stream and yields a
// bit-identical offset sequence.
type Arrival struct {
	// Process selects the shape; "poisson" is the only one.
	Process string `json:"process"`
	// Rate is the mean arrival rate in requests per second.
	Rate float64 `json:"rate"`
}

func (a Arrival) validate() error {
	if a.Rate <= 0 {
		return fmt.Errorf("workload: arrival rate must be positive, got %g", a.Rate)
	}
	if a.Process != "poisson" {
		return fmt.Errorf("workload: unknown arrival process %q (have poisson)", a.Process)
	}
	return nil
}

// expGapNS draws one exponential inter-arrival gap at rate (req/s),
// returned in integer nanoseconds (floored, min 0). Keeping the
// running offset in int64 nanoseconds — rather than accumulating
// float seconds — makes schedules bit-stable by construction.
func expGapNS(rng *tensor.RNG, rate float64) int64 {
	u := rng.Float64()
	for u == 0 { // guard log(0); Float64 is in [0,1)
		u = rng.Float64()
	}
	return int64(-math.Log(u) / rate * 1e9)
}

// Times generates the process's arrival offsets (nanoseconds from
// schedule start, strictly within [0, durationNS), non-decreasing)
// using draws from rng: exponential inter-arrival gaps at Rate.
func (a Arrival) Times(rng *tensor.RNG, durationNS int64) []int64 {
	var out []int64
	t := expGapNS(rng, a.Rate)
	for t < durationNS {
		out = append(out, t)
		t += expGapNS(rng, a.Rate)
	}
	return out
}
