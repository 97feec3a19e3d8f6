package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzStoreManifest hands a stored run and a stored snapshot the same
// arbitrary manifest.json bytes: a torn write, a hand edit, another
// entry's manifest. No reader or listing panics. A run manifest that
// Get, Contains or List accepts re-hashes to its own address, the
// address of the spec asked for; a snapshot manifest that BestSnapshot
// or Snapshots accepts is one loadSnapshotManifest accepts at the
// snapshot's address.
func FuzzStoreManifest(f *testing.F) {
	spec := sampleSpec(7)
	records := rawLines(`{"a":1}`, `{"b":[2,3]}`)
	prefix, steps, blob := samplePrefix(7), 20, []byte("state")
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Put(spec, records); err != nil {
		f.Fatal(err)
	}
	if err := st.PutSnapshot(prefix, steps, 0.5, blob); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(st.runDir(spec.Hash()), "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	validSnap, err := os.ReadFile(filepath.Join(st.snapDir(prefix.Hash(), steps), "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"v": 2`), []byte(`"v": 0`), 1))
	f.Add(bytes.Replace(valid, []byte(`"seed": 1`), []byte(`"seed": 2`), 1))
	f.Add([]byte(strings.Replace(string(valid), `"records": 2`, `"records": 3`, 1)))
	f.Add([]byte(`{"manifest_version":1,"hash":"","spec":{}}`))
	f.Add([]byte(`null`))
	f.Add(validSnap)
	f.Fuzz(func(t *testing.T, manifest []byte) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(spec, records); err != nil {
			t.Fatal(err)
		}
		if err := st.PutSnapshot(prefix, steps, 0.5, blob); err != nil {
			t.Fatal(err)
		}
		hash := spec.Canonical().Hash()
		snapDir := st.snapDir(prefix.Canonical().Hash(), steps)
		for _, dir := range []string{st.runDir(hash), snapDir} {
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		checkSnapshotReaders(t, st, prefix, steps, blob)
		recs, ok, _ := st.Get(spec)
		has := st.Contains(spec)
		list, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		if !ok && !has && len(list) == 0 {
			return
		}
		m, err := loadManifest(st.runDir(hash))
		if err != nil {
			t.Fatalf("accepted (get %v, contains %v, listed %d) a manifest loadManifest refuses: %v", ok, has, len(list), err)
		}
		if m.Hash != hash || m.Spec.Canonical().Hash() != hash {
			t.Fatalf("accepted manifest names %s and re-hashes to %s, stored at %s", m.Hash, m.Spec.Canonical().Hash(), hash)
		}
		if len(list) != 1 || list[0].Hash != hash {
			t.Fatalf("List of an accepted entry = %+v", list)
		}
		if ok && len(recs) != len(records) {
			t.Fatalf("Get served %d records of %d", len(recs), len(records))
		}
	})
}

// checkSnapshotReaders asserts every snapshot reader accepts the entry
// at (p, steps) exactly when loadSnapshotManifest does, and serves only
// its stored blob.
func checkSnapshotReaders(t *testing.T, st *Store, p PrefixSpec, steps int, blob []byte) {
	t.Helper()
	_, loadErr := loadSnapshotManifest(st.snapDir(p.Canonical().Hash(), steps), p.Canonical().Hash(), steps)
	want := loadErr == nil
	best, _, ok, _ := st.BestSnapshot(p, steps, nil)
	list, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	// BestSnapshot CRCs the blob, so a manifest can pass the load and
	// still be refused; no reader may accept what the load refuses.
	if (ok && !want) || (len(list) > 0 && !want) {
		t.Fatalf("accepted (best %v, listed %d) a snapshot manifest loadSnapshotManifest refuses: %v",
			ok, len(list), loadErr)
	}
	if ok && !bytes.Equal(best, blob) {
		t.Fatalf("BestSnapshot served %q, stored %q", best, blob)
	}
	if len(list) > 1 || (ok && len(list) != 1) {
		t.Fatalf("Snapshots of a readable entry = %+v", list)
	}
}
