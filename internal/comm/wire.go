package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"

	"repro/internal/tensor"
)

// The socket fabric's frame protocol. Every message between a worker
// and the coordinator is one frame:
//
//	magic   [4]byte "FDA2" (the wire version: a peer speaking another is refused)
//	opcode  u8
//	rank    i32  (little-endian; -1 before assignment)
//	seq     u32  (collective sequence number; 0 for handshake frames)
//	kindLen u8, kind bytes (the meter kind, for protocol sanity checks)
//	payLen  u32, payload bytes
//	crc     u32  CRC-32 (IEEE) over opcode..payload
//
// Frames are length-prefixed (payLen) and integrity-checked (crc); a
// mismatch is a hard protocol error — the fabric never guesses at
// resynchronization. Payloads are opaque at this layer: float64 vectors
// travel little-endian (appendF64s/decodeF64s), codec-compressed drifts
// travel in their compress wire encoding, bundles in bundle framing.
const (
	wireMagic   = "FDA2"
	maxFrameLen = 1 << 30 // hard cap: a frame larger than 1 GiB is a protocol error

	opHello   = 1 // worker → coordinator: request a rank
	opAssign  = 2 // coordinator → worker: rank, K, job payload
	opContrib = 3 // worker → coordinator: one collective contribution
	opBundle  = 4 // coordinator → worker: the K − 1 other contributions, rank order
	opResult  = 5 // worker → coordinator: final result payload
	opDone    = 6 // coordinator → worker: run acknowledged, close
	opError   = 7 // either direction: fatal error message
)

// frame is one decoded protocol message. crc is the CRC-32 of the
// payload alone, a by-product of verifying a received frame (readFrame)
// that lets the coordinator relay the payload without summing it again.
type frame struct {
	op      byte
	rank    int32
	seq     uint32
	kind    string
	payload []byte
	crc     uint32
}

// appendFrameHead appends a frame's header, magic through payLen, to dst.
func appendFrameHead(dst []byte, f frame, payLen int) ([]byte, error) {
	if len(f.kind) > 255 {
		return dst, fmt.Errorf("comm: wire kind %q too long", f.kind)
	}
	if payLen > maxFrameLen {
		return dst, fmt.Errorf("comm: wire payload %d exceeds frame cap", payLen)
	}
	dst = append(dst, wireMagic...)
	dst = append(dst, f.op)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.rank))
	dst = binary.LittleEndian.AppendUint32(dst, f.seq)
	dst = append(dst, byte(len(f.kind)))
	dst = append(dst, f.kind...)
	return binary.LittleEndian.AppendUint32(dst, uint32(payLen)), nil
}

// writeFrame encodes and flushes one frame. The header and the CRC
// trailer are built in the writer's own spare buffer (AvailableBuffer)
// and the CRC is a running uint32, so a frame allocates nothing: the
// fabric's state exchange is four frames per step.
func writeFrame(w *bufio.Writer, f frame) error {
	head, err := appendFrameHead(w.AvailableBuffer(), f, len(f.payload))
	if err != nil {
		return err
	}

	// opcode onward; magic is the resync marker, not data
	crc := crc32.Update(0, crc32.IEEETable, head[4:])
	crc = crc32.Update(crc, crc32.IEEETable, f.payload)

	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(f.payload); err != nil {
		return err
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), crc)); err != nil {
		return err
	}
	return w.Flush()
}

// frameHeadLen is the fixed part of the header: magic(4) op(1) rank(4)
// seq(4) kindLen(1); kind and payLen(4) follow.
const frameHeadLen = 14

// inFrame reports a stream that ends inside a frame: past a frame's first
// byte no EOF is a clean one.
func inFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFrame reads and verifies one frame. buf, when non-nil and large
// enough, backs the payload (zero-copy reuse across collectives). kind
// is the kind the caller expects or saw last on this connection: when the
// frame carries the same bytes, the frame reuses that string instead of
// allocating its own. The header is parsed in place in the reader's buffer
// (Peek, then Discard), which must hold frameHeadLen+255+4 bytes. A stream
// that ends between frames yields io.EOF, inside one io.ErrUnexpectedEOF.
// Header and payload are summed separately and the trailer is checked
// against their combination, so the frame keeps its payload's own CRC.
func readFrame(r *bufio.Reader, buf []byte, kind string) (frame, []byte, error) {
	head, err := r.Peek(frameHeadLen)
	if err != nil {
		if len(head) > 0 {
			err = inFrame(err)
		}
		return frame{}, buf, err
	}
	if string(head[:4]) != wireMagic {
		return frame{}, buf, fmt.Errorf("comm: bad wire magic %q", head[:4])
	}
	f := frame{
		op:   head[4],
		rank: int32(binary.LittleEndian.Uint32(head[5:9])),
		seq:  binary.LittleEndian.Uint32(head[9:13]),
	}
	kindEnd := frameHeadLen + int(head[13])
	if head, err = r.Peek(kindEnd + 4); err != nil {
		return f, buf, inFrame(err)
	}
	headCRC := crc32.Update(0, crc32.IEEETable, head[4:])
	f.kind = kind
	if string(head[frameHeadLen:kindEnd]) != kind {
		f.kind = string(head[frameHeadLen:kindEnd])
	}
	payLen := int(binary.LittleEndian.Uint32(head[kindEnd:]))
	_, _ = r.Discard(len(head)) // cannot fail: these bytes were just peeked
	if payLen > maxFrameLen {
		return f, buf, fmt.Errorf("comm: wire payload %d exceeds frame cap", payLen)
	}
	if buf, err = readPayload(r, buf, payLen); err != nil {
		return f, buf, inFrame(err)
	}
	f.payload = buf
	f.crc = crc32.Update(0, crc32.IEEETable, f.payload)
	crc := crcCombine(headCRC, f.crc, payLen)

	tail, err := r.Peek(4)
	if err != nil {
		return f, buf, inFrame(err)
	}
	got := binary.LittleEndian.Uint32(tail)
	_, _ = r.Discard(len(tail)) // cannot fail, as above
	if got != crc {
		return f, buf, fmt.Errorf("comm: wire CRC mismatch: frame %08x, computed %08x", got, crc)
	}
	if f.op == opError {
		return f, buf, fmt.Errorf("comm: peer error: %s", f.payload)
	}
	return f, buf, nil
}

// payloadGrowStep is the least the payload buffer grows by while a frame
// larger than it is being read.
const payloadGrowStep = 64 << 10

// readPayload reads an n-byte payload into buf[:n]. A buffer that is
// already large enough — every frame of a run after the first of its
// size — is filled in one read. A larger payload is not allocated on the
// header's word: the buffer grows as bytes arrive, to at most twice what
// has been received (and at least payloadGrowStep) per step, so a stream
// that declares up to the 1 GiB cap and then ends costs memory in
// proportion to the bytes it actually sent.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n {
		_, err := io.ReadFull(r, buf[:n])
		return buf[:n], err
	}
	buf = buf[:0]
	for len(buf) < n {
		have := len(buf)
		next := make([]byte, min(n, max(2*have, payloadGrowStep)))
		copy(next, buf)
		if _, err := io.ReadFull(r, next[have:]); err != nil {
			return next, err
		}
		buf = next
	}
	return buf, nil
}

// crcPoly is the CRC-32 (IEEE) polynomial, bit-reversed as in hash/crc32.
const crcPoly = 0xedb88320

// crcMulMod returns a(x)·b(x) mod the CRC polynomial (reflected bit
// order: bit 31 is x^0).
//
//fda:noalloc
func crcMulMod(a, b uint32) uint32 {
	var p uint32
	for ; a != 0; a <<= 1 { // a's terms from x^0 up, until none is left
		if a&(1<<31) != 0 {
			p ^= b
		}
		b = b>>1 ^ crcPoly&-(b&1)
	}
	return p
}

// crcX2N[k] is x^(2^k) mod the CRC polynomial. x has order 2^32−1, so
// the table repeats with period 32.
var crcX2N = func() (t [32]uint32) {
	t[0] = 1 << 30 // x^1
	for k := 1; k < len(t); k++ {
		t[k] = crcMulMod(t[k-1], t[k-1])
	}
	return t
}()

// crcCombine returns the CRC-32 of A‖B given crc(A), crc(B) and len(B):
// crc(A)·x^(8·len(B)) + crc(B) in GF(2)[x] mod the polynomial (zlib's
// crc32_combine; hash/crc32 has no equivalent). The cost is one
// crcMulMod per set bit of lenB — under 2 µs for any length — where
// summing B again costs its length.
//
//fda:noalloc
func crcCombine(crcA, crcB uint32, lenB int) uint32 {
	shift := uint32(1) << 31 // x^0
	for n, k := uint64(lenB), 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			shift = crcMulMod(crcX2N[k&31], shift)
		}
	}
	return crcMulMod(shift, crcA) ^ crcB
}

// bundle framing: u32 count, then count × (u32 len, bytes), rank order.
// A worker's bundle carries the K − 1 contributions of the other ranks;
// the worker splices its own back in at its rank (TCPFabric.exchange).

// bundleWriter writes opBundle frames straight from the buffers the
// contributions were received into: one vectored write of
// header+count+len₀ | part₀ | len₁ | part₁ … | trailer, the frame CRC
// combined from the parts' CRCs. No part is copied or summed again. The
// fields are scratch reused across writes; vec is a field because
// net.Buffers.WriteTo consumes its receiver through a pointer.
type bundleWriter struct {
	meta []byte // header, count, part lengths, trailer
	iov  [][]byte
	vec  net.Buffers
}

// write sends parts (crcs[r] = CRC-32 of parts[r]) but parts[skip], the
// recipient's own, as the payload of one opBundle frame with header f.
func (b *bundleWriter) write(w io.Writer, f frame, parts [][]byte, crcs []uint32, skip int) error {
	// The count word, then every part but skip's with its length word.
	payLen := 4 - (4 + len(parts[skip]))
	for _, p := range parts {
		payLen += 4 + len(p)
	}
	meta, err := appendFrameHead(b.meta[:0], f, payLen)
	if err != nil {
		return err
	}
	// Grow first: iov holds views into meta, which must not move.
	meta = slices.Grow(meta, 4+4*len(parts)+4)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(parts)-1))
	iov := b.iov[:0]
	crc := crc32.Update(0, crc32.IEEETable, meta[4:])
	from := 0
	for r, p := range parts {
		if r == skip {
			continue
		}
		lenAt := len(meta)
		meta = binary.LittleEndian.AppendUint32(meta, uint32(len(p)))
		crc = crc32.Update(crc, crc32.IEEETable, meta[lenAt:])
		crc = crcCombine(crc, crcs[r], len(p))
		iov = append(iov, meta[from:], p)
		from = len(meta)
	}
	meta = binary.LittleEndian.AppendUint32(meta, crc)
	iov = append(iov, meta[from:])
	b.meta, b.iov, b.vec = meta, iov, iov
	_, err = b.vec.WriteTo(w)
	return err
}

// splitBundle decodes a bundle into per-rank payload views into b.
func splitBundle(b []byte, into [][]byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("comm: truncated bundle header")
	}
	count := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	into = into[:0]
	for i := 0; i < count; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("comm: truncated bundle part %d", i)
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return nil, fmt.Errorf("comm: bundle part %d short: %d < %d", i, len(b), n)
		}
		into = append(into, b[:n])
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bundle bytes", len(b))
	}
	return into, nil
}

// appendF64s encodes v little-endian into dst (tensor.EncodeLE).
//
//fda:noalloc
func appendF64s(dst []byte, v []float64) []byte {
	at, end := len(dst), len(dst)+8*len(v)
	if cap(dst) < end {
		dst = append(make([]byte, 0, end), dst...) //fda:allow(noalloc, the send buffer grows once per vector length)
	}
	dst = dst[:end]
	tensor.EncodeLE(dst[at:], v)
	return dst
}

// meanF64s stores into dst the mean of the K little-endian float64
// vectors in parts, reading the bundle bytes once: a tile of dst at a
// time, the first part is stored, the middle parts are added and the
// last is added and scaled by 1/K — tensor.Mean's ((v0+v1)+…)·(1/K)
// association, so the result equals decoding every part and calling
// tensor.Mean bit for bit.
//
//fda:noalloc
func meanF64s(dst []float64, parts [][]byte) error {
	for r, p := range parts {
		if len(p) != 8*len(dst) {
			return fmt.Errorf("rank %d contribution: float payload %d bytes, want %d", r, len(p), 8*len(dst)) //fda:allow(noalloc, argument boxing on the protocol-error path only)
		}
	}
	const tile = 512 // elements: K+1 tiles of 4 KiB stay in L1
	last := len(parts) - 1
	inv := 1 / float64(len(parts))
	for lo := 0; lo < len(dst); lo += tile {
		hi := min(lo+tile, len(dst))
		d := dst[lo:hi]
		tensor.DecodeLE(d, parts[0][8*lo:8*hi])
		for r := 1; r < last; r++ {
			tensor.AddScaleLE(d, parts[r][8*lo:8*hi], 1)
		}
		if last > 0 {
			tensor.AddScaleLE(d, parts[last][8*lo:8*hi], inv)
		} else {
			tensor.Scale(d, inv)
		}
	}
	return nil
}

// decodeF64s decodes exactly len(dst) little-endian float64s from b
// (tensor.DecodeLE).
func decodeF64s(dst []float64, b []byte) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("comm: float payload %d bytes, want %d", len(b), 8*len(dst))
	}
	tensor.DecodeLE(dst, b)
	return nil
}

// FabricError wraps a transport failure inside a fabric collective.
// Socket-fabric methods cannot return errors (the Fabric interface is
// shared with infallible in-process backends), so they panic with a
// *FabricError; drivers (dist.RunWorker) recover it into an ordinary
// error.
type FabricError struct{ Err error }

// Error implements error.
func (e *FabricError) Error() string { return "comm: fabric transport: " + e.Err.Error() }

// Unwrap exposes the cause.
func (e *FabricError) Unwrap() error { return e.Err }
