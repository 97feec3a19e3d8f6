package workload

import (
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// MixEntry weights one request kind in the job mix. Submission kinds
// (train, sweep) carry a payload template; poll kinds (status,
// records, store, cancel) need none — their targets are resolved by
// the driver at execution time against the jobs it has submitted.
type MixEntry struct {
	Kind   Kind           `json:"kind"`
	Weight float64        `json:"weight"`
	Train  *TrainTemplate `json:"train,omitempty"`
	Sweep  *SweepTemplate `json:"sweep,omitempty"`
}

// TrainTemplate shapes the POST /v1/train payloads of a train cohort.
// The zero values of the optional fields defer to the server's
// documented defaults, exactly like a hand-written request would.
type TrainTemplate struct {
	Model     string  `json:"model"`
	Strategy  string  `json:"strategy"`
	Theta     float64 `json:"theta,omitempty"`
	Tau       int     `json:"tau,omitempty"`
	K         int     `json:"k,omitempty"`
	Batch     int     `json:"batch,omitempty"`
	Steps     int     `json:"steps,omitempty"`
	EvalEvery int     `json:"eval_every,omitempty"`
	Het       string  `json:"het,omitempty"`
	// Distributed submits multi-process jobs: the server coordinates K
	// fabric workers per job instead of training in-process. Each job
	// then idles until workers join, which also makes this the lever for
	// holding very large numbers of jobs concurrently open.
	Distributed bool `json:"distributed,omitempty"`
	// SeedBase seeds the cohort: the i-th train request generated from
	// this template carries seed SeedBase+i, so every submission is a
	// distinct spec (distinct content address, no server-side dedupe)
	// and the load is real work, not one job polled a thousand times.
	// Set DedupeSeeds to pin every request to SeedBase instead and
	// exercise the dedupe path on purpose.
	SeedBase    uint64 `json:"seed_base,omitempty"`
	DedupeSeeds bool   `json:"dedupe_seeds,omitempty"`
}

// SweepTemplate shapes the POST /v1/runs payloads of a sweep cohort.
type SweepTemplate struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale,omitempty"`
	// SeedBase varies the sweep seed per generated request, mirroring
	// TrainTemplate.SeedBase.
	SeedBase    uint64 `json:"seed_base,omitempty"`
	DedupeSeeds bool   `json:"dedupe_seeds,omitempty"`
}

// body is the payload of the entry's n-th request: a dist.JobSpec or a
// cluster.SweepSpec, the type the server parses it into, and nil for a
// poll kind. Struct marshaling has a fixed field order, so generated
// payload bytes are deterministic.
func (e MixEntry) body(n uint64) ([]byte, error) {
	var v any
	switch e.Kind {
	case KindTrain:
		t := e.Train
		v = dist.JobSpec{
			Model: t.Model, Strategy: t.Strategy, Theta: t.Theta, Tau: t.Tau,
			K: t.K, Batch: t.Batch, Steps: t.Steps, EvalEvery: t.EvalEvery, Het: t.Het,
			Seed: cohortSeed(t.SeedBase, t.DedupeSeeds, n), Distributed: t.Distributed,
		}
	case KindSweep:
		t := e.Sweep
		v = cluster.SweepSpec{Experiment: t.Experiment, Scale: t.Scale, Seed: cohortSeed(t.SeedBase, t.DedupeSeeds, n)}
	default:
		return nil, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("workload: marshaling %s body: %w", e.Kind, err)
	}
	return b, nil
}

// cohortSeed is the seed of a cohort's n-th request: base+n, or base
// for every request under dedupe. The server reads seed 0 as "default",
// so 0 becomes 1 and every spec stays addressable.
func cohortSeed(base uint64, dedupe bool, n uint64) uint64 {
	if !dedupe {
		base += n
	}
	return max(base, 1)
}

// mixer draws kinds in proportion to the entry weights and stamps
// each submission kind's payload from its template.
type mixer struct {
	entries []MixEntry
	cum     []float64 // cumulative weights for inversion sampling
	total   float64
	issued  []uint64 // per-entry submission counter (seed variation)
}

func newMixer(entries []MixEntry) *mixer {
	m := &mixer{entries: entries, issued: make([]uint64, len(entries))}
	for _, e := range entries {
		m.total += e.Weight
		m.cum = append(m.cum, m.total)
	}
	return m
}

// next draws the next request's kind and body.
func (m *mixer) next(rng *tensor.RNG) (Kind, json.RawMessage, error) {
	r := rng.Float64() * m.total
	i := 0
	for i < len(m.cum)-1 && r >= m.cum[i] {
		i++
	}
	e := m.entries[i]
	b, err := e.body(m.issued[i])
	m.issued[i]++
	return e.Kind, b, err
}

// Schedule expands the spec into its deterministic request schedule:
// arrival offsets from one split of the seed stream, mix draws from
// another, sequence numbers in arrival order. The same Spec yields
// byte-identical requests on every call.
func (s Spec) Schedule() ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	base := tensor.NewRNG(s.Seed)
	arrivalRNG, mixRNG := base.Split(), base.Split()
	times := s.Arrival.Times(arrivalRNG, int64(s.DurationSec*1e9))
	mix := newMixer(s.Mix)
	reqs := make([]Request, 0, len(times))
	for i, t := range times {
		kind, body, err := mix.next(mixRNG)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, Request{Seq: int64(i), Offset: t, Kind: kind, Body: body})
	}
	return reqs, nil
}
