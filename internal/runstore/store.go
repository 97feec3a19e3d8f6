package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// Manifest describes one stored run. It lives next to the records file
// and carries everything needed to verify and list the entry without
// decoding the records themselves.
type Manifest struct {
	ManifestVersion int    `json:"manifest_version"`
	Hash            string `json:"hash"`
	Spec            Spec   `json:"spec"`
	// Records is the JSONL line count and Bytes the records-file size;
	// CRC64 (ECMA, hex) covers the records-file bytes exactly.
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	CRC64   string `json:"crc64"`
	// CreatedUnix is informational only (not part of any hash).
	CreatedUnix int64 `json:"created_unix"`
}

// Store is a content-addressed result store rooted at a directory:
//
//	<dir>/runs/<hh>/<hash>/manifest.json   (hh = first hash byte)
//	<dir>/runs/<hh>/<hash>/records.jsonl
//
// Entries appear atomically (staged in <dir>/tmp, renamed into place),
// so a killed writer never leaves a half-visible run, and concurrent
// writers of the same spec are idempotent.
type Store struct {
	dir string
}

// stagingMaxAge is how old a staging directory must be before Open
// garbage-collects it. A live Put stages for milliseconds; anything
// this old is debris from a writer killed between MkdirTemp and its
// deferred RemoveAll.
const stagingMaxAge = time.Hour

// Open opens the store rooted at dir, creating the directory tree as
// needed. Stale staging directories — left behind by writers killed
// mid-Put — are swept; the age gate keeps concurrent live writers'
// stages untouched.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "runs"), filepath.Join(dir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("runstore: %w", err)
		}
	}
	s := &Store{dir: dir}
	s.sweepStaging(stagingMaxAge)
	return s, nil
}

// sweepStaging removes staging entries older than maxAge from
// <dir>/tmp and returns how many it removed. Entries it cannot stat or
// remove are skipped — they will be retried by the next Open.
func (s *Store) sweepStaging(maxAge time.Duration) int {
	tmp := filepath.Join(s.dir, "tmp")
	entries, err := os.ReadDir(tmp)
	if err != nil {
		return 0
	}
	//fda:allow(wallclock, staging-GC age cutoff; affects only orphaned tmp files, never run contents)
	cutoff := time.Now().Add(-maxAge)
	n := 0
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.RemoveAll(filepath.Join(tmp, e.Name())) == nil {
			n++
		}
	}
	return n
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// runDir maps a hash to its entry directory.
func (s *Store) runDir(hash string) string {
	return filepath.Join(s.dir, "runs", hash[:2], hash)
}

// Contains reports whether the store holds a verified entry for spec.
// Verification is the cheap structural kind (loadManifest plus a size
// stat): full CRC coverage of the records bytes is deferred to Get,
// which reads them anyway — so Contains stays O(1) in store bytes
// instead of re-reading the records file per call.
func (s *Store) Contains(spec Spec) bool {
	spec = spec.Canonical()
	hash := spec.Hash()
	dir := s.runDir(hash)
	m, err := loadManifest(dir)
	return err == nil && m.Hash == hash && sized(dir, "records.jsonl", m.Bytes)
}

// loadManifest reads dir/manifest.json and verifies it is internally
// consistent: current version, and a spec that re-hashes to the
// recorded address (rejecting hand-edited entries and theoretical
// collisions). It does not touch the records file; the returned error
// wraps ErrCorrupt for anything but a missing manifest.
func loadManifest(dir string) (Manifest, error) {
	var m Manifest
	if err := readManifest(dir, &m, &m.ManifestVersion); err != nil {
		return Manifest{}, err
	}
	if m.Spec.Canonical().Hash() != m.Hash {
		return Manifest{}, fmt.Errorf("%w: manifest spec does not re-hash to %s", ErrCorrupt, m.Hash)
	}
	return m, nil
}

// Get loads the records stored for spec. ok is false on a miss; a
// non-nil error wrapping ErrCorrupt additionally reports an entry that
// exists but failed verification (also returned as a miss so callers
// recompute).
func (s *Store) Get(spec Spec) (recs []json.RawMessage, ok bool, err error) {
	start := obs.Clock()
	sp := obs.StartRegion("runstore.Get", "runstore")
	defer func() {
		getSec.Since(start)
		if sp.Active() {
			sp.EndArgs("hit", ok)
		}
	}()
	spec = spec.Canonical()
	hash := spec.Hash()
	dir := s.runDir(hash)
	m, err := loadManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("manifest %s: %w", hash, err)
	}
	// loadManifest verified the stored spec re-hashes to m.Hash; it must
	// also be the address we derived, or the entry answers a different
	// question than asked.
	if m.Hash != hash {
		return nil, false, fmt.Errorf("%w: manifest %s does not match its spec", ErrCorrupt, hash)
	}
	rb, err := readPayload(dir, "records.jsonl", m.Bytes, m.CRC64)
	if err != nil {
		return nil, false, fmt.Errorf("entry %s: %w", hash, err)
	}
	recs = splitLines(rb)
	if len(recs) != m.Records {
		return nil, false, fmt.Errorf("%w: records %s hold %d lines, manifest says %d",
			ErrCorrupt, hash, len(recs), m.Records)
	}
	return recs, true, nil
}

// Put stores records under spec's content address, replacing any
// existing entry. The entry is staged in the store's tmp area and
// renamed into place, so concurrent or interrupted writers leave either
// the old entry or the complete new one.
func (s *Store) Put(spec Spec, records []json.RawMessage) (err error) {
	start := obs.Clock()
	sp := obs.StartRegion("runstore.Put", "runstore")
	defer func() {
		putSec.Since(start)
		if sp.Active() {
			sp.EndArgs("records", len(records), "ok", err == nil)
		}
	}()
	spec = spec.Canonical()
	hash := spec.Hash()

	var rb bytes.Buffer
	for _, r := range records {
		line := bytes.TrimSpace([]byte(r))
		if bytes.ContainsRune(line, '\n') {
			// Re-encode to guarantee one line per record.
			var v any
			if err := json.Unmarshal(line, &v); err != nil {
				return fmt.Errorf("runstore: record is not valid JSON: %v", err)
			}
			compact, err := json.Marshal(v)
			if err != nil {
				return fmt.Errorf("runstore: %v", err)
			}
			line = compact
		}
		rb.Write(line)
		rb.WriteByte('\n')
	}
	m := Manifest{
		ManifestVersion: ManifestVersion,
		Hash:            hash,
		Spec:            spec,
		Records:         len(records),
		Bytes:           int64(rb.Len()),
		CRC64:           checksum(rb.Bytes()),
		//fda:allow(wallclock, manifest provenance timestamp; excluded from the content address and record bytes)
		CreatedUnix: time.Now().Unix(),
	}
	return s.install(s.runDir(hash), m, "records.jsonl", rb.Bytes())
}

// Count returns the number of stored entries by walking directory
// names only — no manifest decoding or record verification — so cheap
// periodic monitors (fdaserve's /v1/metrics) don't pay List's O(runs)
// file reads per poll. Unverifiable entries are counted; the catalog of
// record (List) remains the verified view.
func (s *Store) Count() int {
	n := 0
	walk(filepath.Join(s.dir, "runs"), 2, func(string) { n++ })
	return n
}

// List returns the manifests of every structurally verified entry — a
// consistent manifest at its own address whose records file has the
// declared size — sorted by (experiment, model, strategy, hash) so
// listings are stable. Get still CRC-checks the records it serves.
func (s *Store) List() ([]Manifest, error) {
	var out []Manifest
	err := walk(filepath.Join(s.dir, "runs"), 2, func(dir string) {
		m, err := loadManifest(dir)
		if err == nil && m.Hash == filepath.Base(dir) && sized(dir, "records.jsonl", m.Bytes) {
			out = append(out, m)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("runstore: %v", err)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Spec.Experiment != b.Spec.Experiment {
			return a.Spec.Experiment < b.Spec.Experiment
		}
		if a.Spec.Model != b.Spec.Model {
			return a.Spec.Model < b.Spec.Model
		}
		if a.Spec.Strategy != b.Spec.Strategy {
			return a.Spec.Strategy < b.Spec.Strategy
		}
		return a.Hash < b.Hash
	})
	return out, nil
}

// splitLines splits JSONL bytes into one raw message per line.
func splitLines(b []byte) []json.RawMessage {
	var out []json.RawMessage
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		out = append(out, json.RawMessage(append([]byte(nil), line...)))
	}
	return out
}
