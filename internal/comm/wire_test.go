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

// appendBundle encodes parts but parts[skip] into dst: the bundle
// framing as one contiguous payload, for the recipient of rank skip (a
// skip outside the parts omits none). The coordinator assembled every
// bundle this way before it relayed them with vectored writes; it stays
// as the oracle the relay's bytes are pinned to.
func appendBundle(dst []byte, parts [][]byte, skip int) []byte {
	count := len(parts)
	if skip >= 0 && skip < len(parts) {
		count--
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	for r, p := range parts {
		if r != skip {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
			dst = append(dst, p...)
		}
	}
	return dst
}

// frameBytes is writeFrame's output for f.
func frameBytes(t testing.TB, f frame) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&wire), f); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// relayedBundle is the bundle frame bundleWriter puts on the wire for
// parts to the worker of rank skip.
func relayedBundle(t testing.TB, b *bundleWriter, f frame, parts [][]byte, skip int) []byte {
	t.Helper()
	crcs := make([]uint32, len(parts))
	for r, p := range parts {
		crcs[r] = crc32.ChecksumIEEE(p)
	}
	var wire bytes.Buffer
	if err := b.write(&wire, f, parts, crcs, skip); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// goldenBundle is the wire format, frozen: rank 1's copy of collective 7,
// kind "model", over the parts "ab", "" and "c" — it carries "ab" and
// "c", rank 1's own part stays home.
const goldenBundle = "46444132" + "04" + "01000000" + "07000000" + "05" + "6d6f64656c" + "0f000000" +
	"02000000" + "02000000" + "6162" + "01000000" + "63" + "5208cae4"

// TestBundleWriterBytes pins the relay's vectored bundle frames to the
// frozen format: byte for byte what writeFrame sends for the assembled
// payload, for every K × part-size combination around the reader's 64 KiB
// buffer and every recipient rank, with one writer reused throughout as
// the relay reuses its own. Each frame reads back, splits into the K − 1
// other parts, and with the recipient's own spliced in at its rank gives
// back all K.
func TestBundleWriterBytes(t *testing.T) {
	var b bundleWriter
	head := frame{op: opBundle, rank: 1, seq: 7, kind: "model"}
	golden := relayedBundle(t, &b, head, [][]byte{[]byte("ab"), nil, []byte("c")}, 1)
	if hex.EncodeToString(golden) != goldenBundle {
		t.Fatalf("golden bundle frame:\n got %x\nwant %s", golden, goldenBundle)
	}
	check := func(parts [][]byte) {
		t.Helper()
		for skip := range parts {
			got := relayedBundle(t, &b, head, parts, skip)
			full := head
			full.payload = appendBundle(nil, parts, skip)
			if want := frameBytes(t, full); !bytes.Equal(got, want) {
				t.Fatalf("K=%d, part 0 of %d bytes, to rank %d: relayed frame (%d bytes) differs from writeFrame(appendBundle) (%d bytes)",
					len(parts), len(parts[0]), skip, len(got), len(want))
			}
			fr, _, err := readFrame(bufio.NewReader(bytes.NewReader(got)), nil, "model")
			if err != nil || !bytes.Equal(fr.payload, full.payload) {
				t.Fatalf("K=%d, part 0 of %d bytes, to rank %d: relayed frame does not read back: %v", len(parts), len(parts[0]), skip, err)
			}
			others, err := splitBundle(fr.payload, nil)
			if err != nil || len(others) != len(parts)-1 {
				t.Fatalf("K=%d, to rank %d: bundle splits into %d parts, want %d: %v", len(parts), skip, len(others), len(parts)-1, err)
			}
			spliced := slices.Insert(others, skip, parts[skip])
			for r := range parts {
				if !bytes.Equal(spliced[r], parts[r]) {
					t.Fatalf("K=%d, to rank %d: spliced part %d differs from the contribution", len(parts), skip, r)
				}
			}
		}
	}
	rng := tensor.NewRNG(5)
	random := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Intn(256))
		}
		return p
	}
	sizes := []int{0, 1, 16, 65535, 65539, 1 << 20}
	for _, k := range []int{1, 2, 3, 8} {
		for _, size := range sizes {
			parts := make([][]byte, k)
			for r := range parts {
				parts[r] = random(size)
			}
			check(parts)
		}
	}
	mixed := make([][]byte, len(sizes))
	for r, size := range sizes {
		mixed[r] = random(size)
	}
	check(mixed)

	// 17 views of one 64 MiB part, 16 of them sent: 1 GiB of parts and
	// their length words, past the frame cap.
	huge := make([][]byte, 17)
	huge[0] = make([]byte, maxFrameLen/16)
	for r := range huge {
		huge[r] = huge[0]
	}
	if err := b.write(io.Discard, head, huge, make([]uint32, len(huge)), 0); err == nil {
		t.Fatal("bundle over the frame cap accepted")
	}
}

// TestCRCCombine checks the identity the relay and the reader rest on:
// crcCombine(crc(A), crc(B), len(B)) == crc(A‖B), empty sides included.
func TestCRCCombine(t *testing.T) {
	rng := tensor.NewRNG(17)
	lens := []int{0, 1, 2, 3, 4, 7, 8, 16, 31, 32, 33, 255, 256, 4097, 65535, 65536, 755488}
	for i := 0; i < 40; i++ {
		lens = append(lens, rng.Intn(1<<rng.Intn(18)))
	}
	buf := make([]byte, 2*755488)
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	for _, la := range lens {
		for _, lb := range lens {
			a, b := buf[:la], buf[la:la+lb]
			got := crcCombine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), lb)
			if want := crc32.ChecksumIEEE(buf[:la+lb]); got != want {
				t.Fatalf("len(A)=%d len(B)=%d: combined %08x, crc(A‖B) %08x", la, lb, got, want)
			}
		}
	}
}

// TestMeanF64sMatchesTensorMean pins the fused decode-and-reduce to the
// arithmetic it replaced: decode every part, tensor.Mean. Exact through
// Float64bits for every K, every main-loop / tail / tile-edge length,
// parts starting at odd byte offsets, ordinary and special values; any
// NaN matches any NaN, as in tensor's kernels_simd_test.go.
func TestMeanF64sMatchesTensorMean(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, 1, -1,
	}
	lens := []int{1023, 1024, 1025, 4099}
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	rng := tensor.NewRNG(29)
	for k := 1; k <= 9; k++ {
		for _, n := range lens {
			vecs := make([][]float64, k)
			parts := make([][]byte, k)
			for r := range vecs {
				v := make([]float64, n)
				for i := range v {
					v[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7))-3)
					if rng.Intn(3) == 0 {
						v[i] = specials[rng.Intn(len(specials))]
					}
				}
				off := 1 + (r+n)%7 // never 8-byte aligned
				parts[r] = appendF64s(make([]byte, off, off+8*n), v)[off:]
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
			if err := meanF64s(got, parts); err != nil {
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
	if err := meanF64s(make([]float64, 3), [][]byte{make([]byte, 24), make([]byte, 23)}); err == nil {
		t.Fatal("short contribution accepted")
	}
}

// FuzzReadFrame feeds the frame reader arbitrary bytes: it must never
// panic, and a frame it accepts carries a trailer equal to the plain
// sequential CRC-32 over opcode‥payload — the combine-verified reader
// accepts exactly what the one-pass reader did.
func FuzzReadFrame(f *testing.F) {
	var b bundleWriter
	f.Add(relayedBundle(f, &b, frame{op: opBundle, rank: 1, seq: 7, kind: "model"}, [][]byte{[]byte("ab"), nil, []byte("c")}, 1))
	f.Add(frameBytes(f, frame{op: opContrib, rank: 1, seq: 7, kind: "state", payload: bytes.Repeat([]byte{0xa5}, 16)}))
	f.Add(frameBytes(f, frame{op: opHello, rank: -1}))
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
		if !bytes.Equal(fr.payload, data[n-len(fr.payload):n]) || fr.crc != crc32.ChecksumIEEE(fr.payload) {
			t.Fatalf("accepted frame's payload or payload CRC differs from the input's")
		}
	})
}

// FuzzSplitBundle feeds the bundle parser arbitrary payloads: it must
// never panic, and the parts it returns re-encode to the input exactly.
func FuzzSplitBundle(f *testing.F) {
	f.Add(appendBundle(nil, [][]byte{[]byte("ab"), nil, []byte("c")}, 1))
	f.Add(appendBundle(nil, [][]byte{bytes.Repeat([]byte{0xa5}, 16), bytes.Repeat([]byte{0x5a}, 16)}, 0))
	f.Add(appendBundle(nil, nil, -1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := splitBundle(data, nil)
		if err != nil {
			return
		}
		if !bytes.Equal(appendBundle(nil, parts, -1), data) {
			t.Fatalf("accepted bundle %x does not re-encode from its %d parts", data, len(parts))
		}
	})
}
