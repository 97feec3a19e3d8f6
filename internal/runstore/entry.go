package runstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// The registry has one entry format (DESIGN.md §6, §10): a directory
// holding manifest.json and one payload file whose size and CRC-64 the
// manifest records. Runs (records.jsonl) and prefix snapshots
// (state.ckpt) are two users of the helpers below; each adds only its
// own manifest fields and address rule.

// ManifestVersion gates the on-disk layout of every entry, run or
// snapshot.
const ManifestVersion = 1

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt marks a store entry whose bytes fail verification (CRC or
// record-count mismatch, unreadable manifest, or a spec that does not
// re-hash to its address). Readers treat corrupt entries as cache
// misses; the next Put overwrites them.
var ErrCorrupt = errors.New("runstore: corrupt entry")

// checksum is the manifest's CRC64 field for payload b.
func checksum(b []byte) string {
	return fmt.Sprintf("%016x", crc64.Checksum(b, crcTable))
}

// readManifest decodes dir/manifest.json into m and checks that
// *version (m's own ManifestVersion field) is current. A missing
// manifest returns the os error; anything else wraps ErrCorrupt.
func readManifest(dir string, m any, version *int) error {
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return err
		}
		return fmt.Errorf("%w: reading manifest: %v", ErrCorrupt, err)
	}
	if err := json.Unmarshal(mb, m); err != nil {
		return fmt.Errorf("%w: decoding manifest: %v", ErrCorrupt, err)
	}
	if *version != ManifestVersion {
		return fmt.Errorf("%w: manifest version %d, want %d", ErrCorrupt, *version, ManifestVersion)
	}
	return nil
}

// readPayload loads dir/name and verifies it against the size and CRC
// its manifest records.
func readPayload(dir, name string, size int64, crc string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrCorrupt, name, err)
	}
	if int64(len(b)) != size || checksum(b) != crc {
		return nil, fmt.Errorf("%w: %s fails CRC", ErrCorrupt, name)
	}
	return b, nil
}

// sized is the structural payload check listings make: dir/name exists
// at the declared size. Readers still CRC the bytes they serve, so a
// listed-then-read entry is fully verified while a listing stays
// O(manifests), not O(store bytes).
func sized(dir, name string, size int64) bool {
	fi, err := os.Stat(filepath.Join(dir, name))
	return err == nil && fi.Size() == size
}

// install writes manifest m and payload name into a fresh staging
// directory under <store>/tmp and renames it over dst. Any previous
// entry is first renamed out of the readers' way. If a concurrent
// writer won the rename race, its entry encodes the same content
// address — determinism makes the two byte-identical up to the
// manifest timestamp — so losing is success.
func (s *Store) install(dst string, m any, name string, payload []byte) error {
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: %v", err)
	}
	stage, err := os.MkdirTemp(filepath.Join(s.dir, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("runstore: %v", err)
	}
	defer os.RemoveAll(stage)
	if err := os.WriteFile(filepath.Join(stage, name), payload, 0o644); err != nil {
		return fmt.Errorf("runstore: %v", err)
	}
	if err := os.WriteFile(filepath.Join(stage, "manifest.json"), mb, 0o644); err != nil {
		return fmt.Errorf("runstore: %v", err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("runstore: %v", err)
	}
	old := stage + ".old"
	if err := os.Rename(dst, old); err == nil {
		defer os.RemoveAll(old)
	}
	if err := os.Rename(stage, dst); err != nil {
		// Only complete entries are ever renamed to dst, so an occupied
		// dst means a concurrent writer placed one first. (It may since
		// have been moved aside by a third writer, who will place its
		// own: the last change to dst is always a placement.)
		if errors.Is(err, fs.ErrExist) || errors.Is(err, syscall.ENOTEMPTY) {
			return nil
		}
		return fmt.Errorf("runstore: %v", err)
	}
	return nil
}

// walk calls fn with every directory exactly depth levels below root
// (runs/<hh>/<hash> is depth 2, snapshots/<hh>/<hash>/<steps> depth 3),
// by directory names alone. Only a root it cannot read is an error;
// unreadable subdirectories are skipped.
func walk(root string, depth int, fn func(dir string)) error {
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if depth == 1 {
			fn(dir)
		} else {
			walk(dir, depth-1, fn)
		}
	}
	return nil
}
