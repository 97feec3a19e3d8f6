package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The socket fabric's frame protocol. Every message between a worker
// and the coordinator is one frame:
//
//	magic   [4]byte "FDA1"
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
	wireMagic   = "FDA1"
	maxFrameLen = 1 << 30 // hard cap: a frame larger than 1 GiB is a protocol error

	opHello   = 1 // worker → coordinator: request a rank
	opAssign  = 2 // coordinator → worker: rank, K, job payload
	opContrib = 3 // worker → coordinator: one collective contribution
	opBundle  = 4 // coordinator → worker: all K contributions, rank order
	opResult  = 5 // worker → coordinator: final result payload
	opDone    = 6 // coordinator → worker: run acknowledged, close
	opError   = 7 // either direction: fatal error message
)

// frame is one decoded protocol message.
type frame struct {
	op      byte
	rank    int32
	seq     uint32
	kind    string
	payload []byte
}

// writeFrame encodes and flushes one frame. The header and the CRC
// trailer are built in the writer's own spare buffer (AvailableBuffer)
// and the CRC is a running uint32, so a frame allocates nothing: the
// fabric's state exchange is four frames per step.
func writeFrame(w *bufio.Writer, f frame) error {
	if len(f.kind) > 255 {
		return fmt.Errorf("comm: wire kind %q too long", f.kind)
	}
	if len(f.payload) > maxFrameLen {
		return fmt.Errorf("comm: wire payload %d exceeds frame cap", len(f.payload))
	}
	head := append(w.AvailableBuffer(), wireMagic...)
	head = append(head, f.op)
	head = binary.LittleEndian.AppendUint32(head, uint32(f.rank))
	head = binary.LittleEndian.AppendUint32(head, f.seq)
	head = append(head, byte(len(f.kind)))
	head = append(head, f.kind...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(f.payload)))

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
	crc := crc32.Update(0, crc32.IEEETable, head[4:])
	f.kind = kind
	if string(head[frameHeadLen:kindEnd]) != kind {
		f.kind = string(head[frameHeadLen:kindEnd])
	}
	payLen := int(binary.LittleEndian.Uint32(head[kindEnd:]))
	_, _ = r.Discard(len(head)) // cannot fail: these bytes were just peeked
	if payLen > maxFrameLen {
		return f, buf, fmt.Errorf("comm: wire payload %d exceeds frame cap", payLen)
	}
	if cap(buf) < payLen {
		buf = make([]byte, payLen)
	}
	f.payload = buf[:payLen]
	if _, err := io.ReadFull(r, f.payload); err != nil {
		return f, buf, inFrame(err)
	}
	crc = crc32.Update(crc, crc32.IEEETable, f.payload)

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

// bundle framing: u32 count, then count × (u32 len, bytes), rank order.

// appendBundle encodes parts into dst.
func appendBundle(dst []byte, parts [][]byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(parts)))
	for _, p := range parts {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
		dst = append(dst, p...)
	}
	return dst
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

// appendF64s encodes v little-endian into dst.
func appendF64s(dst []byte, v []float64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeF64s decodes exactly len(dst) little-endian float64s from b.
func decodeF64s(dst []float64, b []byte) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("comm: float payload %d bytes, want %d", len(b), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
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
