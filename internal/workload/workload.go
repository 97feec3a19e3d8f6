// Package workload is the declarative, deterministic traffic engine
// behind the fdaload driver (DESIGN.md §13): Poisson arrivals drawn
// from the seeded counter-based tensor.RNG, job-mix cohorts that
// weight request kinds over fdaserve's real API surface, and a
// versioned CRC-checked JSONL trace format that can be recorded from
// a live server and replayed bit-identically.
//
// Everything up to the moment a request leaves the client is a pure
// function of (Spec, seed): a workload spec with a fixed seed yields a
// byte-identical request schedule across runs and platforms (pinned by
// the schedule-parity tests), so two load runs against two server
// builds exercise exactly the same traffic and every difference in the
// report is attributable to the server. Real time enters only through
// the injected clock.Clock at execution/recording time — the package itself
// never reads the wall clock (it is in scope for fdavet's wallclock
// analyzer, and for detmap/floatsum via the deterministic-package
// list).
package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/dist"
)

// Kind identifies one request class over fdaserve's API surface.
type Kind string

const (
	// KindTrain submits a single training session (POST /v1/train).
	KindTrain Kind = "train"
	// KindSweep submits a figure sweep (POST /v1/runs).
	KindSweep Kind = "sweep"
	// KindStatus polls one job's status (GET /v1/runs/{id}), or the run
	// listing when no job is known yet.
	KindStatus Kind = "status"
	// KindRecords fetches a finished job's records
	// (GET /v1/runs/{id}/records).
	KindRecords Kind = "records"
	// KindStore browses the cached-run catalog (GET /v1/store) — the
	// pure cached-read path.
	KindStore Kind = "store"
	// KindCancel cancels a job (DELETE /v1/runs/{id}).
	KindCancel Kind = "cancel"
)

// Kinds lists every request kind in stable (report) order.
func Kinds() []Kind {
	return []Kind{KindTrain, KindSweep, KindStatus, KindRecords, KindStore, KindCancel}
}

// ValidKind reports whether k names a known request kind.
func ValidKind(k Kind) bool {
	for _, v := range Kinds() {
		if v == k {
			return true
		}
	}
	return false
}

// Request is one scheduled (or recorded) request. Offset is
// nanoseconds since the start of the schedule and is non-decreasing
// across a schedule or trace; Seq is the admission sequence number.
// Path is set on recorded traces (the exact URL path the original
// client hit); generated schedules leave it empty and the driver
// resolves the target at execution time (e.g. which job id to poll).
type Request struct {
	Seq    int64           `json:"seq"`
	Offset int64           `json:"offset_ns"`
	Kind   Kind            `json:"kind"`
	Path   string          `json:"path,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
}

// Spec is a declarative workload: an arrival process shaping when
// requests fire, a job mix deciding what each one is, a duration and
// a seed. The same Spec+Seed yields a bit-identical schedule.
type Spec struct {
	Arrival Arrival    `json:"arrival"`
	Mix     []MixEntry `json:"mix"`
	// DurationSec bounds the schedule: every offset lies in
	// [0, DurationSec).
	DurationSec float64 `json:"duration_sec"`
	// Seed addresses the schedule's random streams (arrival times and
	// mix draws are decorrelated splits of it).
	Seed uint64 `json:"seed"`
}

// ParseSpec reads one spec from r strictly: a key the Spec does not
// define, at any depth, and any data after the value are errors, so a
// misspelled setting fails loudly instead of silently taking its
// default. The decoded spec must also Validate.
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	if err := dist.DecodeStrict(r, &s); err != nil {
		return Spec{}, fmt.Errorf("workload: spec: %w", err)
	}
	return s, s.Validate()
}

// Validate checks the spec's static shape.
func (s Spec) Validate() error {
	if err := s.Arrival.validate(); err != nil {
		return err
	}
	if s.DurationSec <= 0 {
		return fmt.Errorf("workload: duration_sec must be positive, got %g", s.DurationSec)
	}
	if len(s.Mix) == 0 {
		return fmt.Errorf("workload: mix must name at least one request kind")
	}
	total := 0.0
	for i, e := range s.Mix {
		if !ValidKind(e.Kind) {
			return fmt.Errorf("workload: mix[%d]: unknown kind %q", i, e.Kind)
		}
		if e.Weight < 0 {
			return fmt.Errorf("workload: mix[%d] (%s): weight must be non-negative, got %g", i, e.Kind, e.Weight)
		}
		total += e.Weight
		if e.Kind == KindTrain && e.Train == nil {
			return fmt.Errorf("workload: mix[%d]: kind train requires a train template", i)
		}
		if e.Kind == KindSweep && e.Sweep == nil {
			return fmt.Errorf("workload: mix[%d]: kind sweep requires a sweep template", i)
		}
		// A template the server's parser refuses would make every
		// request it generates a 400.
		b, err := e.body(0)
		if err == nil && e.Kind == KindTrain {
			_, err = dist.ParseJobSpec(b)
		}
		if err == nil && e.Kind == KindSweep {
			_, err = cluster.ParseSweepSpec(b)
		}
		if err != nil {
			return fmt.Errorf("workload: mix[%d] (%s): %w", i, e.Kind, err)
		}
	}
	if total <= 0 {
		return fmt.Errorf("workload: mix weights sum to %g; at least one must be positive", total)
	}
	return nil
}
