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
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/experiments"
)

// SweepSpec is the POST /v1/runs body: fdaserve and the gateway both
// read a submission with ParseSweepSpec and key it with Key, so affinity
// routing and server-side dedupe always agree on what "the same sweep"
// means. (Train jobs are dist.JobSpec, for the same reason.)
type SweepSpec struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	Seed       uint64 `json:"seed"`
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

// ParseSweepSpec is dist.ParseJobSpec's twin for a POST /v1/runs body:
// a strict decode, the defaults, and a known experiment and scale.
func ParseSweepSpec(body []byte) (SweepSpec, error) {
	var s SweepSpec
	if err := dist.DecodeStrict(bytes.NewReader(body), &s); err != nil {
		return SweepSpec{}, fmt.Errorf("invalid JSON body: %w", err)
	}
	// The server-side defaults: two submissions that differ only in
	// spelled-out defaults share one key.
	s.Scale, s.Seed = cmp.Or(s.Scale, "quick"), cmp.Or(s.Seed, 1)
	if _, ok := experiments.Lookup(s.Experiment); !ok {
		return SweepSpec{}, fmt.Errorf("unknown experiment %q (have %s)", s.Experiment, strings.Join(experiments.Names(), ", "))
	}
	if _, err := experiments.ParseScale(s.Scale); err != nil {
		return SweepSpec{}, err
	}
	return s, nil
}

// AffinityAddress classifies a raw submission body (the bytes of a
// POST /v1/train or POST /v1/runs request) and returns the content
// address its job will dedupe under. ok is false exactly when the
// replica's parser refuses the body — such requests carry no affinity
// and fall through to least-loaded routing, where the replica answers
// them with the same parser's 400.
func AffinityAddress(kind string, body []byte) (addr string, ok bool) {
	switch kind {
	case "train":
		return addressOf(dist.ParseJobSpec, body)
	case "sweep":
		return addressOf(ParseSweepSpec, body)
	}
	return "", false
}

// addressOf is the address of the spec parse reads from body, when parse
// admits it.
func addressOf[S interface{ Key() string }](parse func([]byte) (S, error), body []byte) (string, bool) {
	s, err := parse(body)
	if err != nil {
		return "", false
	}
	return Address(s.Key()), true
}
