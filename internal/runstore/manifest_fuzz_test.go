package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzStoreManifest hands a stored entry arbitrary manifest.json bytes:
// a torn write, a hand edit, another entry's manifest. Get, Contains and
// List never panic, and a manifest any of them accepts re-hashes to its
// own address, the address of the spec asked for.
func FuzzStoreManifest(f *testing.F) {
	spec := sampleSpec(7)
	records := rawLines(`{"a":1}`, `{"b":[2,3]}`)
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Put(spec, records); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(st.runDir(spec.Hash()), "manifest.json"))
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
	f.Fuzz(func(t *testing.T, manifest []byte) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(spec, records); err != nil {
			t.Fatal(err)
		}
		hash := spec.Canonical().Hash()
		if err := os.WriteFile(filepath.Join(st.runDir(hash), "manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
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
