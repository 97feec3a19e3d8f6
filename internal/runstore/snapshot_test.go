package runstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func samplePrefix(cellSeed uint64) PrefixSpec {
	return sampleSpec(cellSeed).Prefix("LinearFDA/xi0")
}

func TestPrefixSpecHashStableAndSensitive(t *testing.T) {
	a, b := samplePrefix(7), samplePrefix(7)
	if a.Hash() != b.Hash() {
		t.Fatal("equal prefix specs hash differently")
	}
	// Canonicalization: a zero Version hashes like an explicit SpecVersion.
	c := samplePrefix(7)
	c.Version = SpecVersion
	if c.Hash() != a.Hash() {
		t.Fatal("canonicalization changed the hash")
	}
	// The sync-time coordinates must NOT be load-bearing: cells that
	// differ only in Strategy/Theta share a prefix address — that is the
	// whole point of the prefix spec.
	d := sampleSpec(7)
	d.Strategy, d.Theta = "SketchFDA", 0.2
	if d.Prefix("LinearFDA/xi0").Hash() != a.Hash() {
		t.Fatal("Strategy/Theta leaked into the prefix hash")
	}
	// Every remaining field must be load-bearing.
	mutants := []func(*PrefixSpec){
		func(p *PrefixSpec) { p.Version = SpecVersion + 1 },
		func(p *PrefixSpec) { p.Experiment = "figY" },
		func(p *PrefixSpec) { p.Scale = "full" },
		func(p *PrefixSpec) { p.Seed++ },
		func(p *PrefixSpec) { p.Model = "vgg16s" },
		func(p *PrefixSpec) { p.Family = "silent" },
		func(p *PrefixSpec) { p.K++ },
		func(p *PrefixSpec) { p.Het = "label0" },
		func(p *PrefixSpec) { p.Targets = []float64{0.95, 0.98} },
		func(p *PrefixSpec) { p.CellSeed++ },
		func(p *PrefixSpec) { p.Extra = map[string]string{"steps": "300"} },
	}
	for i, mutate := range mutants {
		m := samplePrefix(7)
		mutate(&m)
		if m.Hash() == a.Hash() {
			t.Fatalf("prefix mutant %d did not change the hash", i)
		}
	}
}

// snapshotAt reads the snapshot stored for p at exactly steps: a
// BestSnapshot whose accept admits only that step count.
func snapshotAt(st *Store, p PrefixSpec, steps int) ([]byte, SnapshotManifest, bool, error) {
	return st.BestSnapshot(p, steps, func(n int, _ float64) bool { return n == steps })
}

func TestSnapshotPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := samplePrefix(1)
	blob := []byte("checkpoint-bytes-1")
	if err := st.PutSnapshot(p, 25, 0.031, blob); err != nil {
		t.Fatal(err)
	}
	got, m, ok, err := snapshotAt(st, p, 25)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, blob) || m.Steps != 25 || m.Guard != 0.031 {
		t.Fatalf("round trip: %q %+v", got, m)
	}
	// Misses: wrong step, wrong prefix.
	if _, _, ok, err := snapshotAt(st, p, 50); ok || err != nil {
		t.Fatalf("missing step served: ok=%v err=%v", ok, err)
	}
	if _, _, ok, _ := snapshotAt(st, samplePrefix(2), 25); ok {
		t.Fatal("different cell seed hit the same snapshot")
	}
	// Replacement is atomic and leaves no staging debris.
	if err := st.PutSnapshot(p, 25, 0.04, []byte("checkpoint-bytes-2")); err != nil {
		t.Fatal(err)
	}
	got, m, ok, _ = snapshotAt(st, p, 25)
	if !ok || string(got) != "checkpoint-bytes-2" || m.Guard != 0.04 {
		t.Fatalf("overwrite not visible: %q %+v", got, m)
	}
	entries, err := os.ReadDir(filepath.Join(st.Dir(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("stray staging dirs: %v", entries)
	}
	if err := st.PutSnapshot(p, 0, 0, blob); err == nil {
		t.Fatal("PutSnapshot accepted step 0")
	}
}

func TestBestSnapshotPicksLongestAdmissible(t *testing.T) {
	st, _ := Open(t.TempDir())
	p := samplePrefix(3)
	for _, e := range []struct {
		steps int
		guard float64
	}{{10, 0.01}, {20, 0.03}, {30, 0.09}, {40, 0.2}} {
		if err := st.PutSnapshot(p, e.steps, e.guard, []byte(fmt.Sprintf("blob@%d", e.steps))); err != nil {
			t.Fatal(err)
		}
	}
	theta := 0.05 // admits guards at 10 and 20, rejects 30 and 40
	accept := func(_ int, guard float64) bool { return guard <= theta }
	blob, m, ok, err := st.BestSnapshot(p, 100, accept)
	if err != nil || !ok {
		t.Fatalf("best: ok=%v err=%v", ok, err)
	}
	if m.Steps != 20 || string(blob) != "blob@20" {
		t.Fatalf("picked steps=%d blob=%q, want the longest admissible (20)", m.Steps, blob)
	}
	// maxSteps caps the scan below the otherwise-best candidate.
	if _, m, ok, _ := st.BestSnapshot(p, 15, accept); !ok || m.Steps != 10 {
		t.Fatalf("maxSteps cap: ok=%v steps=%d, want 10", ok, m.Steps)
	}
	// Nothing admissible → miss, not error.
	if _, _, ok, err := st.BestSnapshot(p, 100, func(int, float64) bool { return false }); ok || err != nil {
		t.Fatalf("inadmissible grid served: ok=%v err=%v", ok, err)
	}
	// Unknown prefix → clean miss.
	if _, _, ok, err := st.BestSnapshot(samplePrefix(99), 100, nil); ok || err != nil {
		t.Fatalf("unknown prefix: ok=%v err=%v", ok, err)
	}
}

func TestBestSnapshotSkipsCorruptEntries(t *testing.T) {
	st, _ := Open(t.TempDir())
	p := samplePrefix(4)
	if err := st.PutSnapshot(p, 10, 0, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSnapshot(p, 20, 0, []byte("soon-corrupt")); err != nil {
		t.Fatal(err)
	}
	hash := p.Canonical().Hash()
	flipByte(t, filepath.Join(st.Dir(), "snapshots", hash[:2], hash, "20", "state.ckpt"))
	blob, m, ok, err := st.BestSnapshot(p, 100, nil)
	if !ok || m.Steps != 10 || string(blob) != "good" {
		t.Fatalf("corrupt candidate not skipped: ok=%v steps=%d blob=%q", ok, m.Steps, blob)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damage not surfaced: err=%v", err)
	}
	// Reading the damaged step alone is a loud miss.
	if _, _, ok, err := snapshotAt(st, p, 20); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot served: ok=%v err=%v", ok, err)
	}
	// Self-healing: a fresh Put replaces the damaged entry.
	if err := st.PutSnapshot(p, 20, 0, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if blob, _, ok, err := snapshotAt(st, p, 20); !ok || err != nil || string(blob) != "healed" {
		t.Fatalf("snapshot did not heal: %q ok=%v err=%v", blob, ok, err)
	}
}

func TestSnapshotsListAndSweep(t *testing.T) {
	st, _ := Open(t.TempDir())
	for i, p := range []PrefixSpec{samplePrefix(1), samplePrefix(1), samplePrefix(2)} {
		if err := st.PutSnapshot(p, 10*(i+1), 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.SnapshotCount(); n != 3 {
		t.Fatalf("SnapshotCount = %d, want 3", n)
	}
	ms, err := st.Snapshots()
	if err != nil || len(ms) != 3 {
		t.Fatalf("Snapshots: %d entries err=%v", len(ms), err)
	}
	for _, m := range ms {
		if m.Prefix.Family != "LinearFDA/xi0" {
			t.Fatalf("bad manifest %+v", m)
		}
	}
	// Nothing is old enough to expire...
	if n := st.SweepSnapshots(time.Hour); n != 0 {
		t.Fatalf("SweepSnapshots removed %d fresh entries", n)
	}
	// ...until everything is.
	if n := st.SweepSnapshots(-time.Hour); n != 3 {
		t.Fatalf("SweepSnapshots removed %d entries, want 3", n)
	}
	if n := st.SnapshotCount(); n != 0 {
		t.Fatalf("%d snapshots survived the sweep", n)
	}

	// DeleteSnapshots drops every step of one prefix and nothing else:
	// not the sibling prefix, not a run entry.
	for i, p := range []PrefixSpec{samplePrefix(1), samplePrefix(1), samplePrefix(2)} {
		if err := st.PutSnapshot(p, 10*(i+1), 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(sampleSpec(1), rawLines(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteSnapshots(samplePrefix(1)); err != nil {
		t.Fatal(err)
	}
	if ms, _ := st.Snapshots(); len(ms) != 1 || ms[0].Hash != samplePrefix(2).Hash() {
		t.Fatalf("after DeleteSnapshots: %+v, want only the sibling prefix", ms)
	}
	if !st.Contains(sampleSpec(1)) {
		t.Fatal("DeleteSnapshots removed a run entry")
	}
	if err := st.DeleteSnapshots(samplePrefix(1)); err != nil {
		t.Fatalf("DeleteSnapshots of a missing prefix: %v", err)
	}
}

// TestOpenSweepsStaleStaging simulates a writer killed mid-Put: its
// leaked staging dir must be collected by the next Open, while a fresh
// stage (a live concurrent writer) survives.
func TestOpenSweepsStaleStaging(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "tmp", "put-stale123")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "records.jsonl"), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * stagingMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "tmp", "put-fresh456")
	if err := os.MkdirAll(fresh, 0o755); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale staging dir survived Open: err=%v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh staging dir was swept: %v", err)
	}
}

// TestStoreConcurrentPutSameSpec races many writers of one spec through
// the dst→old→rename dance; every writer must succeed and the final
// entry must verify (run under -race).
func TestStoreConcurrentPutSameSpec(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := sampleSpec(6)
	want := rawLines(`{"v":1}`, `{"v":2}`)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Put(spec, want); err != nil {
				t.Errorf("concurrent Put: %v", err)
			}
		}()
	}
	wg.Wait()
	got, ok, err := st.Get(spec)
	if !ok || err != nil || len(got) != 2 || string(got[0]) != `{"v":1}` {
		t.Fatalf("entry after race: %s ok=%v err=%v", got, ok, err)
	}
	// The race may leave transient .old dirs mid-flight, but once all
	// writers return the staging area must be clean.
	entries, err := os.ReadDir(filepath.Join(st.Dir(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("stray staging dirs after race: %v", entries)
	}
	// Same race on the snapshot side (shared installStaged path).
	p := samplePrefix(6)
	var wg2 sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if err := st.PutSnapshot(p, 30, 0.01, []byte("deterministic-blob")); err != nil {
				t.Errorf("concurrent PutSnapshot: %v", err)
			}
		}()
	}
	wg2.Wait()
	blob, m, ok, err := snapshotAt(st, p, 30)
	if !ok || err != nil || string(blob) != "deterministic-blob" || m.Guard != 0.01 {
		t.Fatalf("snapshot after race: %q %+v ok=%v err=%v", blob, m, ok, err)
	}
}
