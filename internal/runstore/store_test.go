package runstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleSpec(cellSeed uint64) Spec {
	return Spec{
		Experiment: "figX", Scale: "tiny", Seed: 1,
		Model: "lenet5s", Strategy: "LinearFDA", Theta: 0.05, K: 5,
		Het: "iid", Targets: []float64{0.95}, CellSeed: cellSeed,
	}
}

func rawLines(ss ...string) []json.RawMessage {
	var out []json.RawMessage
	for _, s := range ss {
		out = append(out, json.RawMessage(s))
	}
	return out
}

func TestSpecHashStableAndSensitive(t *testing.T) {
	a, b := sampleSpec(7), sampleSpec(7)
	if a.Hash() != b.Hash() {
		t.Fatal("equal specs hash differently")
	}
	// Canonicalization: a zero Version hashes like an explicit SpecVersion.
	c := sampleSpec(7)
	c.Version = SpecVersion
	if c.Hash() != a.Hash() {
		t.Fatal("canonicalization changed the hash")
	}
	// Every field must be load-bearing.
	mutants := []func(*Spec){
		func(s *Spec) { s.Version = SpecVersion + 1 },
		func(s *Spec) { s.Experiment = "figY" },
		func(s *Spec) { s.Scale = "full" },
		func(s *Spec) { s.Seed++ },
		func(s *Spec) { s.Model = "vgg16s" },
		func(s *Spec) { s.Strategy = "SketchFDA" },
		func(s *Spec) { s.Theta += 1e-9 },
		func(s *Spec) { s.K++ },
		func(s *Spec) { s.Het = "label0" },
		func(s *Spec) { s.Targets = []float64{0.95, 0.98} },
		func(s *Spec) { s.CellSeed++ },
		func(s *Spec) { s.Extra = map[string]string{"steps": "300"} },
	}
	for i, mutate := range mutants {
		m := sampleSpec(7)
		mutate(&m)
		if m.Hash() == a.Hash() {
			t.Fatalf("mutant %d did not change the hash", i)
		}
	}
	// Extra is order-independent by construction (sorted keys).
	x := sampleSpec(7)
	x.Extra = map[string]string{"a": "1", "b": "2"}
	y := sampleSpec(7)
	y.Extra = map[string]string{"b": "2", "a": "1"}
	if x.Hash() != y.Hash() {
		t.Fatal("Extra key order changed the hash")
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := sampleSpec(1)
	if st.Contains(spec) {
		t.Fatal("empty store claims to contain spec")
	}
	want := rawLines(`{"steps":10,"acc":0.5}`, `{"steps":20,"acc":0.9}`)
	if err := st.Put(spec, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(spec)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %s want %s", got, want)
	}
	if !st.Contains(spec) {
		t.Fatal("Contains false after Put")
	}
	// Distinct cell → distinct entry.
	if st.Contains(sampleSpec(2)) {
		t.Fatal("different cell seed hit the same entry")
	}
}

func TestStoreEmptyRecords(t *testing.T) {
	st, _ := Open(t.TempDir())
	spec := sampleSpec(3)
	if err := st.Put(spec, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(spec)
	if !ok || err != nil || len(got) != 0 {
		t.Fatalf("empty entry: got %v ok=%v err=%v", got, ok, err)
	}
}

func TestStoreOverwrite(t *testing.T) {
	st, _ := Open(t.TempDir())
	spec := sampleSpec(4)
	if err := st.Put(spec, rawLines(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(spec, rawLines(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := st.Get(spec)
	if !ok || len(got) != 1 || string(got[0]) != `{"v":2}` {
		t.Fatalf("overwrite not visible: %s", got)
	}
	// The tmp staging area must not accumulate debris.
	entries, err := os.ReadDir(filepath.Join(st.Dir(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("stray staging dirs: %v", entries)
	}
}

// entryKind is one user of the shared entry format, driven through the
// corruption cases below by cell seed: store entry i, find (or remove)
// its directory, read it back, list and count the store.
type entryKind struct {
	name, payload string
	put           func(st *Store, i uint64, payload string) error
	dir           func(st *Store, i uint64) string
	del           func(st *Store, i uint64) error
	// get reads entry i through every reader of the kind and returns
	// the served payload, whether it hit, and the first error.
	get    func(st *Store, i uint64) (payload string, ok bool, err error)
	listed func(t *testing.T, st *Store) int
	count  func(st *Store) int
}

var entryKinds = []entryKind{
	{
		name: "run", payload: "records.jsonl",
		put: func(st *Store, i uint64, v string) error {
			return st.Put(sampleSpec(i), rawLines(`{"v":`+v+`}`, `{"w":2}`))
		},
		dir: func(st *Store, i uint64) string { return st.runDir(sampleSpec(i).Canonical().Hash()) },
		get: func(st *Store, i uint64) (string, bool, error) {
			recs, ok, err := st.Get(sampleSpec(i))
			if len(recs) == 0 {
				return "", ok, err
			}
			return string(recs[0]), ok, err
		},
		listed: func(t *testing.T, st *Store) int {
			ms, err := st.List()
			if err != nil {
				t.Fatal(err)
			}
			if st.Contains(sampleSpec(5)) != (len(ms) == 1) {
				t.Fatalf("Contains disagrees with List (%d listed)", len(ms))
			}
			return len(ms)
		},
		count: (*Store).Count,
	},
	{
		name: "snapshot", payload: "state.ckpt",
		put: func(st *Store, i uint64, v string) error {
			return st.PutSnapshot(samplePrefix(i), 10, 0, []byte("blob-"+v))
		},
		dir: func(st *Store, i uint64) string { return st.snapDir(samplePrefix(i).Canonical().Hash(), 10) },
		get: func(st *Store, i uint64) (string, bool, error) {
			blob, _, ok, err := st.BestSnapshot(samplePrefix(i), 100, nil)
			return string(blob), ok, err
		},
		listed: func(t *testing.T, st *Store) int {
			ms, err := st.Snapshots()
			if err != nil {
				t.Fatal(err)
			}
			return len(ms)
		},
		count: (*Store).SnapshotCount,
	},
}

// TestStoreCorruptionIsAMiss damages one stored entry of each kind in
// each way in turn. The readers must answer a miss wrapping ErrCorrupt
// (so schedulers recompute instead of failing), the listing must skip
// the entry, the count (directory names only) must still count it, and
// a fresh put must heal it.
func TestStoreCorruptionIsAMiss(t *testing.T) {
	rewrite := func(t *testing.T, path string, edit func([]byte) []byte) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		// listed reports whether the listing may still advertise the
		// entry: listings verify structurally (manifest consistency +
		// payload size), so a same-size bitflip is only caught by the
		// reader's CRC — the reader that would serve the bytes.
		listed  bool
		corrupt func(t *testing.T, k entryKind, st *Store, dir string)
	}{
		{"payload-bitflip", true, func(t *testing.T, k entryKind, _ *Store, dir string) {
			flipByte(t, filepath.Join(dir, k.payload))
		}},
		{"payload-truncated", false, func(t *testing.T, k entryKind, _ *Store, dir string) {
			rewrite(t, filepath.Join(dir, k.payload), func(b []byte) []byte { return b[:len(b)/2] })
		}},
		{"payload-removed", false, func(t *testing.T, k entryKind, _ *Store, dir string) {
			if err := os.Remove(filepath.Join(dir, k.payload)); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest-wrong-version", false, func(t *testing.T, _ entryKind, _ *Store, dir string) {
			rewrite(t, filepath.Join(dir, "manifest.json"), func(b []byte) []byte {
				return bytes.Replace(b, []byte(`"manifest_version": 1`), []byte(`"manifest_version": 2`), 1)
			})
		}},
		{"manifest-garbage", false, func(t *testing.T, _ entryKind, _ *Store, dir string) {
			rewrite(t, filepath.Join(dir, "manifest.json"), func([]byte) []byte { return []byte("not json") })
		}},
		{"manifest-wrong-spec", false, func(t *testing.T, k entryKind, st *Store, dir string) {
			// Another entry's intact manifest, copied under this address.
			if err := k.put(st, 99, "9"); err != nil {
				t.Fatal(err)
			}
			other, err := os.ReadFile(filepath.Join(k.dir(st, 99), "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.RemoveAll(k.dir(st, 99)); err != nil {
				t.Fatal(err)
			}
			rewrite(t, filepath.Join(dir, "manifest.json"), func([]byte) []byte { return other })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range entryKinds {
				t.Run(k.name, func(t *testing.T) {
					st, _ := Open(t.TempDir())
					if err := k.put(st, 5, "1"); err != nil {
						t.Fatal(err)
					}
					tc.corrupt(t, k, st, k.dir(st, 5))
					got, ok, err := k.get(st, 5)
					if ok || got != "" {
						t.Fatalf("corrupt entry served: %q", got)
					}
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("want ErrCorrupt, got %v", err)
					}
					wantListed := 0
					if tc.listed {
						wantListed = 1
					}
					if n := k.listed(t, st); n != wantListed {
						t.Fatalf("listing advertised %d entries, want %d", n, wantListed)
					}
					if n := k.count(st); n != 1 {
						t.Fatalf("count = %d, want the damaged entry counted (1)", n)
					}
					// Self-healing: a fresh put replaces the damaged entry.
					if err := k.put(st, 5, "3"); err != nil {
						t.Fatal(err)
					}
					if got, ok, err := k.get(st, 5); !ok || err != nil || !strings.Contains(got, "3") {
						t.Fatalf("store did not heal: %q ok=%v err=%v", got, ok, err)
					}
				})
			}
		})
	}
}

func flipByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreList(t *testing.T) {
	st, _ := Open(t.TempDir())
	specs := []Spec{sampleSpec(1), sampleSpec(2), sampleSpec(3)}
	for i, spec := range specs {
		if err := st.Put(spec, rawLines(`{"i":`+string(rune('0'+i))+`}`)); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("listed %d entries, want 3", len(ms))
	}
	for _, m := range ms {
		if m.Records != 1 || m.Spec.Experiment != "figX" {
			t.Fatalf("bad manifest %+v", m)
		}
	}
}
