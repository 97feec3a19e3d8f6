// Package cluster is the scale-out serving layer (DESIGN.md §14): a
// replica pool with cache-affinity routing and the fdagate HTTP gateway
// that proxies the fdaserve v1 API across N replicas sharing one
// content-addressed runstore.
//
// Routing is two-tier. Submissions (train jobs, sweeps) are
// content-addressed — the canonical dedupe key of the spec, hashed with
// SHA-256 exactly like runstore addresses its run specs — and routed
// rendezvous-hash-style by that address, so a resubmission of an
// identical spec lands on the replica that already owns the job (or its
// warm-start snapshots) no matter which gateway instance routes it.
// When the affinity owner is quarantined, draining or overloaded, a
// least-loaded fallback picks the shallowest queue among the survivors;
// cached reads may be served by any replica because the store is
// shared. The affinity function is a pure function of (spec, replica
// set) — the package is inside fdavet's deterministic-lint scope, and
// only the explicitly annotated health/load trackers depend on
// measured state.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/dist"
)

// SweepSpec is the POST /v1/runs body: fdaserve decodes submissions
// into it and the gateway computes the same canonical dedupe key from
// it, so affinity routing and server-side dedupe always agree on what
// "the same sweep" means. (Train jobs are dist.JobSpec, for the same
// reason.)
type SweepSpec struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	Seed       uint64 `json:"seed"`
}

// ApplyDefaults fills the server-side defaults. Two submissions that
// differ only in spelled-out defaults must share one key.
func (s *SweepSpec) ApplyDefaults() {
	if s.Scale == "" {
		s.Scale = "quick"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// Key returns the canonical dedupe key of the sweep spec.
func (s SweepSpec) Key() string {
	return fmt.Sprintf("sweep|%s|%s|%d", s.Experiment, s.Scale, s.Seed)
}

// Address content-addresses a canonical job key: hex SHA-256, the same
// scheme runstore uses for run specs. It is the shard key of the
// rendezvous router — equal specs hash to equal addresses on every
// platform, so routing is a pure function of (spec, replica set).
func Address(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// AffinityAddress classifies a raw submission body (the bytes of a
// POST /v1/train or POST /v1/runs request) and returns the content
// address its job will dedupe under. ok is false when the body does
// not decode — such requests carry no affinity and fall through to
// least-loaded routing, where the owning replica will produce the
// authoritative validation error.
func AffinityAddress(kind string, body []byte) (addr string, ok bool) {
	switch kind {
	case "train":
		var t dist.JobSpec
		if err := json.Unmarshal(body, &t); err != nil || t.Model == "" || t.Strategy == "" {
			return "", false
		}
		return Address(t.WithDefaults().Key()), true
	case "sweep":
		var s SweepSpec
		if err := json.Unmarshal(body, &s); err != nil || s.Experiment == "" {
			return "", false
		}
		s.ApplyDefaults()
		return Address(s.Key()), true
	default:
		return "", false
	}
}
