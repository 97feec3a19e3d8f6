package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzUnmarshal drives the v2 container decoder with arbitrary bytes.
// The decoder must never panic or over-allocate on corrupt input
// (lengths are untrusted until the CRC at the end of the stream), and
// any blob it accepts must re-marshal to a stable canonical encoding —
// the content-addressed run registry keys on those bytes.
func FuzzUnmarshal(f *testing.F) {
	seed := func(s *Snapshot) {
		b, err := Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(&Snapshot{Step: 0, Params: []float64{}})
	seed(&Snapshot{Step: 7, Params: []float64{1, -2.5, 3e-9}})
	seed(&Snapshot{
		Step:     42,
		Params:   []float64{0.5, 1.5, -0.25},
		W0:       []float64{0, 1, 2},
		Sections: map[string][]float64{"opt.m": {1, 2}, "opt.v": {3}},
		Counters: map[string]uint64{"rng.pos": 9, "step": 42},
	})
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint at all"))
	// Valid magic and version, then an implausible params length:
	// exercises the header sanity guards without a CRC to hide behind.
	lie := binary.LittleEndian.AppendUint64(nil, magic)
	lie = binary.LittleEndian.AppendUint64(lie, versionSections)
	lie = binary.LittleEndian.AppendUint64(lie, 3) // step
	lie = binary.LittleEndian.AppendUint64(lie, 1<<62)
	f.Add(lie)
	// A params length under the cap that the blob cannot hold: the
	// decoder must fail it as a truncation before allocating 4 GiB.
	short := binary.LittleEndian.AppendUint64(nil, magic)
	short = binary.LittleEndian.AppendUint64(short, versionSections)
	short = binary.LittleEndian.AppendUint64(short, 3)
	short = binary.LittleEndian.AppendUint64(short, 1<<29)
	f.Add(append(short, make([]byte, 32)...))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Unmarshal(b)
		if err != nil {
			return // rejection is the expected outcome for corrupt input
		}
		canon, err := Marshal(s)
		if err != nil {
			t.Fatalf("re-marshal of accepted snapshot failed: %v", err)
		}
		s2, err := Unmarshal(canon)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		canon2, err := Marshal(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("marshal is not stable: %d vs %d bytes", len(canon), len(canon2))
		}
	})
}
