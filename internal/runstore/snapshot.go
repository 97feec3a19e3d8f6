package runstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// SnapshotManifest describes one stored trajectory-prefix snapshot. It
// lives next to the checkpoint blob and carries everything a planner
// needs to pick a snapshot without reading the blob.
type SnapshotManifest struct {
	ManifestVersion int `json:"manifest_version"`
	// Hash is the prefix address (PrefixSpec.Hash); Steps the number of
	// completed global steps the blob captures.
	Hash   string     `json:"hash"`
	Prefix PrefixSpec `json:"prefix"`
	Steps  int        `json:"steps"`
	// Guard is the running maximum of the publishing strategy's sync
	// statistic over steps 1..Steps. A consumer with threshold Θ may
	// restore this snapshot only if Guard ≤ Θ — the exact complement of
	// the strict h > Θ sync trigger — which proves it would not have
	// synchronized anywhere in the prefix either (DESIGN.md §10).
	// Schedule-driven families ignore it (always 0) and gate on Steps.
	Guard float64 `json:"guard"`
	// Bytes is the blob size; CRC64 (ECMA, hex) covers the blob exactly.
	Bytes int64  `json:"bytes"`
	CRC64 string `json:"crc64"`
	// CreatedUnix is informational and drives age-based GC only.
	CreatedUnix int64 `json:"created_unix"`
}

// snapDir maps a prefix address and step count to the snapshot's
// directory: <dir>/snapshots/<hh>/<hash>/<steps>. Keeping steps as a
// directory level (not part of the hash) makes all snapshots of one
// trajectory enumerable with a single readdir.
func (s *Store) snapDir(hash string, steps int) string {
	return filepath.Join(s.dir, "snapshots", hash[:2], hash, strconv.Itoa(steps))
}

// PutSnapshot stores a checkpoint blob as the prefix snapshot of p at
// the given step count, replacing any existing one. Writes are staged
// and renamed exactly like Put: concurrent publishers of the same
// (prefix, steps) write byte-identical state (determinism) and equal
// guards (the guard is a pure function of the trajectory), so losing
// the rename race is success.
func (s *Store) PutSnapshot(p PrefixSpec, steps int, guard float64, blob []byte) (err error) {
	start := obs.Clock()
	sp := obs.StartRegion("runstore.PutSnapshot", "runstore")
	defer func() {
		snapPutSec.Since(start)
		if sp.Active() {
			sp.EndArgs("steps", steps, "bytes", len(blob), "ok", err == nil)
		}
	}()
	if steps <= 0 {
		return fmt.Errorf("runstore: snapshot at non-positive step %d", steps)
	}
	p = p.Canonical()
	m := SnapshotManifest{
		ManifestVersion: ManifestVersion,
		Hash:            p.Hash(),
		Prefix:          p,
		Steps:           steps,
		Guard:           guard,
		Bytes:           int64(len(blob)),
		CRC64:           checksum(blob),
		//fda:allow(wallclock, snapshot provenance timestamp; excluded from the content address and restore path)
		CreatedUnix: time.Now().Unix(),
	}
	return s.install(s.snapDir(m.Hash, steps), m, "state.ckpt", blob)
}

// loadSnapshotManifest reads and structurally verifies the snapshot
// manifest in dir against the expected address and step count. Like
// loadManifest it never touches the blob; the error wraps ErrCorrupt
// for anything but a missing manifest.
func loadSnapshotManifest(dir, hash string, steps int) (SnapshotManifest, error) {
	var m SnapshotManifest
	if err := readManifest(dir, &m, &m.ManifestVersion); err != nil {
		return SnapshotManifest{}, err
	}
	if m.Hash != hash || m.Steps != steps || m.Prefix.Canonical().Hash() != hash {
		return SnapshotManifest{}, fmt.Errorf("%w: snapshot manifest does not match its address", ErrCorrupt)
	}
	return m, nil
}

// BestSnapshot returns the longest stored prefix of p with steps ≤
// maxSteps that accept admits, reading (and CRC-verifying) only the
// blob it selects. accept receives the candidate's step count and
// guard; a nil accept admits everything. Corrupt candidates are
// skipped — the first such error is reported alongside whatever result
// the scan still found, so callers can fall back to a cold start while
// surfacing the damage.
func (s *Store) BestSnapshot(p PrefixSpec, maxSteps int, accept func(steps int, guard float64) bool) (blob []byte, m SnapshotManifest, ok bool, err error) {
	start := obs.Clock()
	sp := obs.StartRegion("runstore.BestSnapshot", "runstore")
	defer func() {
		snapBestSec.Since(start)
		if ok {
			bestHits.Inc()
		} else {
			bestMisses.Inc()
		}
		if sp.Active() {
			sp.EndArgs("hit", ok, "steps", m.Steps)
		}
	}()
	hash := p.Canonical().Hash()
	base := filepath.Join(s.dir, "snapshots", hash[:2], hash)
	var steps []int
	walk(base, 1, func(dir string) {
		if n, err := strconv.Atoi(filepath.Base(dir)); err == nil && n > 0 && n <= maxSteps {
			steps = append(steps, n)
		}
	})
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	var firstErr error
	for _, n := range steps {
		dir := filepath.Join(base, strconv.Itoa(n))
		m, err := loadSnapshotManifest(dir, hash, n)
		if err != nil {
			if firstErr == nil && !os.IsNotExist(err) {
				firstErr = err
			}
			continue
		}
		if accept != nil && !accept(m.Steps, m.Guard) {
			continue
		}
		blob, err := readPayload(dir, "state.ckpt", m.Bytes, m.CRC64)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return blob, m, true, firstErr
	}
	return nil, SnapshotManifest{}, false, firstErr
}

// SnapshotCount returns the number of stored prefix snapshots by
// walking directory names only — the cheap counterpart of Snapshots,
// for periodic monitors (fdaserve's /v1/metrics).
func (s *Store) SnapshotCount() int {
	n := 0
	walk(filepath.Join(s.dir, "snapshots"), 3, func(string) { n++ })
	return n
}

// Snapshots returns the manifests of every structurally verified
// snapshot — a consistent manifest at its own (hash, steps) directory
// whose blob has the declared size — sorted by (experiment, model,
// family, steps, hash) so listings are stable. Blob CRCs are deferred
// to BestSnapshot, mirroring List.
func (s *Store) Snapshots() ([]SnapshotManifest, error) {
	var out []SnapshotManifest
	walk(filepath.Join(s.dir, "snapshots"), 3, func(dir string) {
		steps, err := strconv.Atoi(filepath.Base(dir))
		if err != nil {
			return
		}
		m, err := loadSnapshotManifest(dir, filepath.Base(filepath.Dir(dir)), steps)
		if err == nil && sized(dir, "state.ckpt", m.Bytes) {
			out = append(out, m)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Prefix.Experiment != b.Prefix.Experiment {
			return a.Prefix.Experiment < b.Prefix.Experiment
		}
		if a.Prefix.Model != b.Prefix.Model {
			return a.Prefix.Model < b.Prefix.Model
		}
		if a.Prefix.Family != b.Prefix.Family {
			return a.Prefix.Family < b.Prefix.Family
		}
		if a.Steps != b.Steps {
			return a.Steps < b.Steps
		}
		return a.Hash < b.Hash
	})
	return out, nil
}

// SweepSnapshots is the snapshot GC policy: it removes every snapshot
// older than maxAge (by manifest CreatedUnix; unreadable manifests
// count as infinitely old) and returns how many were removed.
// Snapshots are pure accelerators — deleting one can never change a
// result, only cost a warm start — so age-based expiry is always safe.
func (s *Store) SweepSnapshots(maxAge time.Duration) int {
	//fda:allow(wallclock, snapshot-GC age cutoff; snapshots are pure accelerators so expiry cannot change results)
	cutoff := time.Now().Add(-maxAge).Unix()
	n := 0
	walk(filepath.Join(s.dir, "snapshots"), 3, func(dir string) {
		var m SnapshotManifest
		if readManifest(dir, &m, &m.ManifestVersion) == nil && m.CreatedUnix > cutoff {
			return
		}
		if os.RemoveAll(dir) == nil {
			n++
		}
	})
	return n
}

// DeleteSnapshots removes every stored snapshot of p, at any step
// count; a prefix with none is a no-op.
func (s *Store) DeleteSnapshots(p PrefixSpec) error {
	hash := p.Canonical().Hash()
	return os.RemoveAll(filepath.Join(s.dir, "snapshots", hash[:2], hash))
}
