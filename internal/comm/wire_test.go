package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// TestFrameRoundTripDoesNotAllocate pins the per-frame cost of the socket
// fabric's framing: a steady-state frameWriter.write + readFrame pair
// (reused payload buffer, the kind the reader expects) allocates at most
// one object. dist_fda exchanges a frame each way per step on a path
// DESIGN.md §7 calls allocation-free.
func TestFrameRoundTripDoesNotAllocate(t *testing.T) {
	var pipe bytes.Buffer
	pipe.Grow(1 << 12)
	fw, br := frameWriter{w: &pipe}, bufio.NewReaderSize(&pipe, 1<<12)
	payload := bytes.Repeat([]byte{0xa5}, 16) // a two-scalar state exchange
	var buf []byte
	roundTrip := func() {
		pipe.Reset()
		if err := fw.write(frame{op: opContrib, rank: 1, seq: 7, kind: "state", payload: payload}); err != nil {
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
	want := frame{op: opContrib, rank: 2, seq: 9, kind: "model", payload: []byte("0123456789")}
	enc := frameBytes(t, want)
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

// TestReadFrameGrowsWithTheBytesThatArrive: a payload larger than the
// caller's buffer is read in growing steps and comes back intact in a
// buffer of exactly its size, and a header that declares the 1 GiB cap
// over a stream that then ends fails as a cut frame after allocating in
// proportion to the bytes received, not to the claim (FuzzReadFrame found
// the up-front allocation and used to skip such inputs).
func TestReadFrameGrowsWithTheBytesThatArrive(t *testing.T) {
	payload := make([]byte, 3*payloadGrowStep+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	enc := frameBytes(t, frame{op: opContrib, rank: 1, seq: 7, kind: "model", payload: payload})
	fr, buf, err := readFrame(bufio.NewReader(bytes.NewReader(enc)), make([]byte, 8), "model")
	if err != nil || !bytes.Equal(fr.payload, payload) || cap(buf) != len(payload) {
		t.Fatalf("large frame: %d payload bytes in a %d-byte buffer, %v", len(fr.payload), cap(buf), err)
	}

	short := bytes.Clone(enc[:frameHeadLen+len("model")+4+100])
	binary.LittleEndian.PutUint32(short[frameHeadLen+len("model"):], maxFrameLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = readFrame(bufio.NewReader(bytes.NewReader(short)), nil, "model")
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("short stream under a %d-byte claim: %v, want io.ErrUnexpectedEOF", maxFrameLen, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*payloadGrowStep {
		t.Fatalf("short stream under a %d-byte claim allocated %d bytes", maxFrameLen, got)
	}
}

// frameBytes is frameWriter's output for f.
func frameBytes(t testing.TB, f frame) []byte {
	t.Helper()
	var wire bytes.Buffer
	fw := frameWriter{w: &wire}
	if err := fw.write(f); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// goldenContribution is the wire format, frozen: rank 1's contribution to
// collective 7, kind "model", the vector {1.5, −2} — what a worker's
// writer goroutine sends each peer.
const goldenContribution = "46444133" + "03" + "01000000" + "07000000" + "05" + "6d6f64656c" + "10000000" +
	"000000000000f83f" + "00000000000000c0" + "e80f9b4f"

// TestPeerFrameBytes pins a peer contribution frame to the frozen format,
// checks that it reads back whole, and that a worker sends exactly those
// bytes to its peer: a fabric of rank 1 in a 2-worker cluster, whose
// rank-0 peer is driven frame by frame.
func TestPeerFrameBytes(t *testing.T) {
	vec := []float64{1.5, -2}
	golden := frameBytes(t, frame{op: opContrib, rank: 1, seq: 7, kind: "model", payload: tensor.AppendLE(nil, vec)})
	if hex.EncodeToString(golden) != goldenContribution {
		t.Fatalf("golden contribution frame:\n got %x\nwant %s", golden, goldenContribution)
	}
	fr, _, err := readFrame(bufio.NewReader(bytes.NewReader(golden)), nil, "model")
	if err != nil || fr.op != opContrib || fr.rank != 1 || fr.seq != 7 || !bytes.Equal(fr.payload, golden[frameHeadLen+len("model")+4:len(golden)-4]) {
		t.Fatalf("golden frame reads back as %+v, %v", fr, err)
	}

	coord, _ := serve(t, 2)
	raw := helloRaw(t, coord.Addr()) // rank 0
	fab := dialAfter(t, coord, 1)    // rank 1
	raw.assigned(t)
	link := raw.link(t, 1)
	f := fab()
	for seq := uint32(1); seq <= 7; seq++ {
		sent := collective(func() { f.AllReduce("model", [][]float64{slices.Clone(vec)}) })
		got := link.read(t, len(golden))
		link.send(t, contribution(0, seq, "model", vec))
		if p := await(t, "all-reduce", sent); p != nil {
			t.Fatalf("all-reduce %d panicked: %v", seq, p)
		}
		if seq == 7 && !bytes.Equal(got, golden) {
			t.Fatalf("rank 1 sent its peer\n%x\nwant the golden frame\n%x", got, golden)
		}
	}
}

// TestMeanF64sMatchesTensorMean pins the fused decode-and-reduce to the
// arithmetic it replaced: decode every part, tensor.Mean. Exact through
// Float64bits for every K, every main-loop / tail / tile-edge length,
// parts starting at odd byte offsets, ordinary and special values; any
// NaN matches any NaN, as in tensor's kernels_simd_test.go. That is not a
// loose end: the two paths put an add's operands in different positions,
// so with two NaN payloads in play they keep different ones (a second
// payload, 0xfff8…0abc, gives K=6 n=5 [1] 0xfff8…0abc folded against
// 0x7ff8…0001 from tensor.Mean, and the reverse at K=2 n=1024 [15] under
// -tags purego), and NaN payloads are outside the bit contract (DESIGN
// §7). TestMeanF64sInPlaceMatchesFold pins the fold's own operand order,
// payloads included.
func TestMeanF64sMatchesTensorMean(t *testing.T) {
	rng := tensor.NewRNG(29)
	for k := 1; k <= 9; k++ {
		for _, n := range meanLens() {
			vecs := make([][]float64, k)
			parts := make([][]byte, k)
			for r := range vecs {
				v := meanVec(rng, n, meanSpecials)
				off := 1 + (r+n)%7 // never 8-byte aligned
				parts[r] = tensor.AppendLE(make([]byte, off, off+8*n), v)[off:]
				vecs[r] = make([]float64, n)
				if err := decodeF64s(vecs[r], parts[r]); err != nil {
					t.Fatal(err)
				}
				for i := range v {
					if math.Float64bits(vecs[r][i]) != math.Float64bits(v[i]) {
						t.Fatalf("K=%d n=%d: rank %d element %d does not survive encode/decode", k, n, r, i)
					}
				}
			}
			want := make([]float64, n)
			tensor.Mean(want, vecs...)
			got := make([]float64, n)
			if err := meanF64s(got, parts, -1); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && (got[i] == got[i] || want[i] == want[i]) {
					t.Fatalf("K=%d n=%d [%d]: folded %v (%#x), tensor.Mean %v (%#x)", k, n, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
	if err := meanF64s(make([]float64, 3), [][]byte{make([]byte, 24), make([]byte, 23)}, -1); err == nil {
		t.Fatal("short contribution accepted")
	}
}

// meanSpecials are the special values the fold tests mix in.
var meanSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, 1, -1,
}

// meanLens are the fold tests' vector lengths: every main-loop and tail
// length up to 67, and both sides of the fold's 512-element tile edges.
func meanLens() []int {
	lens := []int{1023, 1024, 1025, 4099}
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	return lens
}

// meanVec draws an n-element contribution across seven decades, one
// element in three replaced by one of specials.
func meanVec(rng *tensor.RNG, n int, specials []float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7))-3)
		if rng.Intn(3) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// TestMeanF64sInPlaceMatchesFold pins the in-place fold of an
// all-reduce, whose own part is its destination's memory image
// (tensor.ViewLE): for K = 1…9 and that part at every rank position, the
// result equals the fold of the same bytes into a separate destination
// through Float64bits, NaN payloads included. A second NaN payload joins
// the special values, so a fold that swapped two operands — the same
// sum, another NaN — shows.
func TestMeanF64sInPlaceMatchesFold(t *testing.T) {
	if tensor.ViewLE(make([]float64, 1)) == nil {
		t.Skip("this build has no memory view: an all-reduce folds from an encoded copy")
	}
	specials := append(slices.Clone(meanSpecials), math.Float64frombits(0xfff8_0000_0000_0abc))
	rng := tensor.NewRNG(31)
	for k := 1; k <= 9; k++ {
		for _, n := range meanLens() {
			parts := make([][]byte, k)
			for r := range parts {
				off := 1 + (r+n)%7 // never 8-byte aligned
				parts[r] = tensor.AppendLE(make([]byte, off, off+8*n), meanVec(rng, n, specials))[off:]
			}
			want := make([]float64, n)
			if err := meanF64s(want, parts, -1); err != nil {
				t.Fatal(err)
			}
			for self := range k {
				dst := make([]float64, n)
				if err := decodeF64s(dst, parts[self]); err != nil {
					t.Fatal(err)
				}
				own := slices.Clone(parts)
				own[self] = tensor.ViewLE(dst)
				if err := meanF64s(dst, own, self); err != nil {
					t.Fatal(err)
				}
				for i := range dst {
					if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
						t.Fatalf("K=%d n=%d, own part at rank %d [%d]: in place %#x, separate %#x", k, n, self, i,
							math.Float64bits(dst[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// FuzzReadFrame feeds the frame reader arbitrary bytes: it must never
// panic, and a frame it accepts carries a trailer equal to the plain
// sequential CRC-32 over opcode‥payload.
func FuzzReadFrame(f *testing.F) {
	golden, err := hex.DecodeString(goldenContribution)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(frameBytes(f, frame{op: opContrib, rank: 1, seq: 7, kind: "state", payload: bytes.Repeat([]byte{0xa5}, 16)}))
	f.Add(frameBytes(f, frame{op: opHello, rank: -1, payload: []byte("127.0.0.1:4001")}))
	f.Add(frameBytes(f, frame{op: opError, payload: []byte("worker 1 failed")}))
	// A header alone may declare a payload up to the 1 GiB cap; the
	// reader must find the stream short without allocating it.
	short := frameBytes(f, frame{op: opContrib, rank: 1, seq: 7, kind: "model"})
	binary.LittleEndian.PutUint32(short[frameHeadLen+len("model"):], maxFrameLen)
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil, "state")
		if err != nil {
			return
		}
		n := frameHeadLen + len(fr.kind) + 4 + len(fr.payload)
		if want := crc32.ChecksumIEEE(data[4:n]); binary.LittleEndian.Uint32(data[n:]) != want {
			t.Fatalf("accepted a frame whose trailer %08x is not crc(opcode‥payload) %08x", data[n:n+4], want)
		}
		if !bytes.Equal(fr.payload, data[n-len(fr.payload):n]) {
			t.Fatalf("accepted frame's payload differs from the input's")
		}
	})
}

// FuzzRendezvousParsers feeds the rendezvous parsers arbitrary bytes:
// neither may panic, an assignment payload that parseAssignment accepts
// re-encodes from its peer table and job to the input exactly, and a
// frame that parsePeerHello accepts is byte for byte the peer hello of
// the rank and cluster size it claims.
func FuzzRendezvousParsers(f *testing.F) {
	f.Add(appendAssignment(nil, []string{"127.0.0.1:4001", "127.0.0.1:4002"}, []byte(`{"model":"lenet5s"}`)))
	f.Add(appendAssignment(nil, []string{"[::1]:9"}, nil))
	f.Add(frameBytes(f, peerHello(1, 3)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if addrs, job, err := parseAssignment(data); err == nil {
			if got := appendAssignment(nil, addrs, job); !bytes.Equal(got, data) {
				t.Fatalf("accepted assignment %x re-encodes as %x", data, got)
			}
		}
		fr, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil, "")
		if err != nil || len(fr.payload) != 4 {
			return
		}
		k := int(binary.LittleEndian.Uint32(fr.payload))
		rank, err := parsePeerHello(fr, k)
		if err != nil {
			return
		}
		if want := frameBytes(t, peerHello(rank, k)); !bytes.HasPrefix(data, want) {
			t.Fatalf("accepted peer hello %x is not the hello of rank %d of %d, %x", data, rank, k, want)
		}
	})
}
