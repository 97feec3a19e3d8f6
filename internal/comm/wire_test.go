package comm

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// TestFrameRoundTripDoesNotAllocate pins the per-frame cost of the socket
// fabric's framing: a steady-state writeFrame + readFrame pair (reused
// payload buffer, the kind the reader expects) allocates at most one
// object. dist_fda exchanges four frames per step on a path DESIGN.md §7
// calls allocation-free.
func TestFrameRoundTripDoesNotAllocate(t *testing.T) {
	var pipe bytes.Buffer
	pipe.Grow(1 << 12)
	bw, br := bufio.NewWriterSize(&pipe, 1<<12), bufio.NewReaderSize(&pipe, 1<<12)
	payload := bytes.Repeat([]byte{0xa5}, 16) // a two-scalar state exchange
	var buf []byte
	roundTrip := func() {
		pipe.Reset()
		if err := writeFrame(bw, frame{op: opContrib, rank: 1, seq: 7, kind: "state", payload: payload}); err != nil {
			t.Fatal(err)
		}
		br.Reset(&pipe)
		fr, b, err := readFrame(br, buf, "state")
		if err != nil || fr.op != opContrib || fr.rank != 1 || fr.seq != 7 || fr.kind != "state" || !bytes.Equal(fr.payload, payload) {
			t.Fatalf("round trip: %+v, %v", fr, err)
		}
		buf = b
	}
	roundTrip()
	if n := testing.AllocsPerRun(200, roundTrip); n > 1 {
		t.Fatalf("frame round trip allocates %v objects, want ≤ 1", n)
	}
}

// TestReadFrameBoundaries checks the reader's contract at the edges the
// Peek-based parser introduced: a clean end of stream is io.EOF, a stream
// cut anywhere inside a frame is io.ErrUnexpectedEOF, a flipped bit
// anywhere after the magic is a CRC (or framing) error, and a kind that
// differs from the caller's hint still comes back as sent.
func TestReadFrameBoundaries(t *testing.T) {
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	want := frame{op: opBundle, rank: 2, seq: 9, kind: "model", payload: []byte("0123456789")}
	if err := writeFrame(bw, want); err != nil {
		t.Fatal(err)
	}
	enc := wire.Bytes()
	read := func(b []byte) (frame, error) {
		fr, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil, "state")
		return fr, err
	}
	if fr, err := read(enc); err != nil || fr.kind != "model" || !bytes.Equal(fr.payload, want.payload) ||
		fr.op != want.op || fr.rank != want.rank || fr.seq != want.seq {
		t.Fatalf("intact frame: %+v, %v", fr, err)
	}
	if _, err := read(nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, err := read(enc[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d of %d: %v, want io.ErrUnexpectedEOF", cut, len(enc), err)
		}
	}
	for i := 4; i < len(enc); i++ {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x10
		if _, err := read(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}
