package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func sampleSnapshot(n int, seed uint64) *Snapshot {
	rng := tensor.NewRNG(seed)
	params := make([]float64, n)
	tensor.Normal(rng, params, 0, 1)
	w0 := make([]float64, n)
	tensor.Normal(rng, w0, 0, 1)
	return &Snapshot{Step: 1234, Params: params, W0: w0}
}

func TestRoundTrip(t *testing.T) {
	s := sampleSnapshot(257, 1)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != s.Step {
		t.Fatalf("step %d want %d", got.Step, s.Step)
	}
	for i := range s.Params {
		if got.Params[i] != s.Params[i] || got.W0[i] != s.W0[i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func TestRoundTripWithoutW0(t *testing.T) {
	s := &Snapshot{Step: 1, Params: []float64{1, 2, 3}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W0 != nil {
		t.Fatalf("expected nil W0, got %v", got.W0)
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := sampleSnapshot(64, 2)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[40] ^= 0x01 // flip one payload bit
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
}

// TestCRCTrailerCorruptionDetected flips a bit in the CRC trailer
// itself (the payload stays intact), which must still be rejected.
func TestCRCTrailerCorruptionDetected(t *testing.T) {
	s := sampleSnapshot(64, 5)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0x80 // inside the 8-byte CRC64 trailer
	_, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("corrupted CRC trailer accepted")
	}
	if !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("want CRC mismatch error, got: %v", err)
	}
}

// TestWrongVersionRejected patches the header's version field to an
// unsupported value; Read must fail on the version check (which runs
// before the CRC is even reachable) with a version error.
func TestWrongVersionRejected(t *testing.T) {
	s := sampleSnapshot(16, 6)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Layout: bytes [0,8) magic, [8,16) version.
	binary.LittleEndian.PutUint64(data[8:16], versionSections+1)
	_, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("wrong-version checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("want unsupported-version error, got: %v", err)
	}
}

// TestTruncationEveryPrefix rejects a checkpoint cut at any point: in
// the header, inside a vector, and inside the CRC trailer.
func TestTruncationEveryPrefix(t *testing.T) {
	s := sampleSnapshot(8, 7)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, n := range []int{0, 4, 8, 15, 16, 23, 24, 40, len(data) - 12, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes accepted", n, len(data))
		}
	}
}

// TestImplausibleLengthRejected: a corrupt vector length must fail fast
// instead of attempting a giant allocation.
func TestImplausibleLengthRejected(t *testing.T) {
	s := &Snapshot{Step: 1, Params: []float64{1}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bytes [24,32) hold len(Params); write an absurd value.
	binary.LittleEndian.PutUint64(data[24:32], 1<<40)
	_, err := Read(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("want implausible-length error, got: %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := Read(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("zero stream accepted")
	}
}

func TestTruncationDetected(t *testing.T) {
	s := sampleSnapshot(64, 3)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-9]
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	s := sampleSnapshot(100, 4)
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != s.Step || len(got.Params) != 100 {
		t.Fatalf("loaded %+v", got)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files: %v", entries)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Property: every (step, params) round-trips bit-exactly, including
// special values that survive the float64 bit-pattern encoding.
func TestRoundTripProperty(t *testing.T) {
	f := func(step uint32, params [9]float64) bool {
		s := &Snapshot{Step: int64(step), Params: params[:]}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Step != int64(step) {
			return false
		}
		for i := range params {
			// Compare bit patterns so NaN round-trips count as equal.
			if (got.Params[i] != params[i]) && !(got.Params[i] != got.Params[i] && params[i] != params[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSectionsRoundTrip: the version-2 layout (named sections and
// counters) round-trips bit-exactly and deterministically, and plain
// snapshots keep writing the version-1 bytes.
func TestSectionsRoundTrip(t *testing.T) {
	s := sampleSnapshot(32, 8)
	s.AddVec("w0.params", []float64{1.5, -2.25, 0})
	s.AddVec("empty", nil)
	s.AddU64("t", 1234)
	s.AddU64("meter.b.model", 1<<60)

	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vec("w0.params")) != 3 || got.Vec("w0.params")[1] != -2.25 {
		t.Fatalf("section payload: %+v", got.Sections)
	}
	if v, ok := got.U64("meter.b.model"); !ok || v != 1<<60 {
		t.Fatalf("counter payload: %v %v", v, ok)
	}
	if v, ok := got.U64("t"); !ok || v != 1234 {
		t.Fatalf("counter t: %v %v", v, ok)
	}
	if _, ok := got.U64("missing"); ok {
		t.Fatal("phantom counter")
	}
	if got.Vec("nope") != nil {
		t.Fatal("phantom section")
	}

	// Determinism: re-encoding the same snapshot yields identical bytes
	// (sections are key-sorted, not map-ordered).
	var buf2 bytes.Buffer
	if err := Write(&buf2, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("v2 encoding is not deterministic")
	}

	// A sectioned snapshot corrupted anywhere in the tables is rejected.
	data := append([]byte(nil), first...)
	data[len(data)-20] ^= 0x40
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted v2 checkpoint accepted")
	}

	// Plain snapshots still write version 1.
	var plain bytes.Buffer
	if err := Write(&plain, sampleSnapshot(8, 9)); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(plain.Bytes()[8:16]); v != version {
		t.Fatalf("plain snapshot wrote version %d", v)
	}
}

// TestNonCanonicalImagesRejected: each image is Marshal's bytes changed
// in one way Marshal never writes, with the CRC recomputed where the
// change sits before it, so only the canonical-form check can refuse it.
func TestNonCanonicalImagesRejected(t *testing.T) {
	le := binary.LittleEndian
	// v2 builds a version-2 image from a section table and a counter
	// table written in the order given, then its CRC.
	v2 := func(sections, counters []string) []byte {
		b := le.AppendUint64(nil, magic)
		b = le.AppendUint64(b, versionSections)
		b = le.AppendUint64(b, 5)         // step
		b = appendVec(b, []float64{1, 2}) // params
		b = appendVec(b, nil)             // w0
		b = le.AppendUint64(b, uint64(len(sections)))
		for i, name := range sections {
			b = appendVec(appendStr(b, name), []float64{float64(i)})
		}
		b = le.AppendUint64(b, uint64(len(counters)))
		for i, name := range counters {
			b = le.AppendUint64(appendStr(b, name), uint64(i))
		}
		return le.AppendUint64(b, crc64.Checksum(b, crcTable))
	}
	// The builder writes what Marshal writes when the names ascend.
	want, _ := Marshal(&Snapshot{Step: 5, Params: []float64{1, 2},
		Sections: map[string][]float64{"a": {0}, "b": {1}}, Counters: map[string]uint64{"c": 0}})
	if !bytes.Equal(v2([]string{"a", "b"}, []string{"c"}), want) {
		t.Fatal("the test's image builder disagrees with Marshal")
	}
	plain, _ := Marshal(sampleSnapshot(3, 1))
	for _, c := range []struct {
		name  string
		image []byte
	}{
		{"bytes after the CRC", append(plain, 0, 0)},
		{"version 2 with no sections and no counters", v2(nil, nil)},
		{"sections out of name order", v2([]string{"b", "a"}, nil)},
		{"counters out of name order", v2(nil, []string{"y", "x"})},
		{"duplicate section names", v2([]string{"a", "a"}, nil)},
		{"duplicate counter names", v2([]string{"a"}, []string{"x", "x"})},
	} {
		if s, err := Unmarshal(c.image); err == nil {
			t.Errorf("%s: accepted, step %d", c.name, s.Step)
		}
	}
}
