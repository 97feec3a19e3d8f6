package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"repro/internal/tensor"
)

// The socket fabric's frame protocol. Every message, between a worker
// and the coordinator or between two workers, is one frame:
//
//	magic   [4]byte "FDA3" (the wire version: a peer speaking another is refused)
//	opcode  u8
//	rank    i32  (little-endian; the sender's rank — see the opcodes for the exceptions)
//	seq     u32  (collective sequence number; 0 for rendezvous frames)
//	kindLen u8, kind bytes (the meter kind, for protocol sanity checks)
//	payLen  u32, payload bytes
//	crc     u32  CRC-32 (IEEE) over opcode..payload
//
// Frames are length-prefixed (payLen) and integrity-checked (crc); a
// mismatch is a hard protocol error — the fabric never guesses at
// resynchronization. Payloads are opaque at this layer: float64 vectors
// travel little-endian (tensor.AppendLE/decodeF64s), codec-compressed drifts
// travel in their compress wire encoding.
const (
	wireMagic   = "FDA3"
	maxFrameLen = 1 << 30 // hard cap: a frame larger than 1 GiB is a protocol error

	opHello   = 1 // worker → coordinator: the worker's peer listen address; rank −1
	opAssign  = 2 // coordinator → worker: rank (header), peer table and job (appendAssignment)
	opContrib = 3 // worker → worker: one collective contribution
	opPeer    = 4 // worker ↔ worker: rank and K, first on a peer connection (peerHello)
	opResult  = 5 // worker → coordinator: final result payload
	opDone    = 6 // coordinator → worker: run acknowledged, close
	opError   = 7 // either direction: fatal error message; from a worker, rank is the rank it blames
)

// frame is one decoded protocol message.
type frame struct {
	op      byte
	rank    int32
	seq     uint32
	kind    string
	payload []byte
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

// frameWriter writes frames to w straight from their payloads: one
// vectored write of header | payload | trailer, so a payload is neither
// copied into a buffer nor split across writes, and the CRC is one
// running uint32. The other fields are scratch reused across frames, so
// a frame allocates nothing; vec is a field because net.Buffers.WriteTo
// consumes its receiver through a pointer.
type frameWriter struct {
	w    io.Writer
	meta []byte // header, then trailer
	iov  [3][]byte
	vec  net.Buffers
}

// write encodes and sends one frame.
func (fw *frameWriter) write(f frame) error {
	meta, err := appendFrameHead(fw.meta[:0], f, len(f.payload))
	if err != nil {
		return err
	}
	head := len(meta)
	// opcode onward; magic is the resync marker, not data
	crc := crc32.Update(0, crc32.IEEETable, meta[4:])
	crc = crc32.Update(crc, crc32.IEEETable, f.payload)
	fw.meta = binary.LittleEndian.AppendUint32(meta, crc)
	fw.iov = [3][]byte{fw.meta[:head], f.payload, fw.meta[head:]}
	fw.vec = fw.iov[:]
	_, err = fw.vec.WriteTo(fw.w)
	return err
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
	if buf, err = readPayload(r, buf, payLen); err != nil {
		return f, buf, inFrame(err)
	}
	f.payload = buf
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
		return f, buf, remoteError(f.payload)
	}
	return f, buf, nil
}

// remoteError is the message of an opError frame: a failure its sender
// reports.
type remoteError string

func (e remoteError) Error() string { return "comm: peer error: " + string(e) }

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

// The rendezvous payloads. An assignment carries the peer table and the
// job: u32 K, then K × (u8 len, listen address), rank order, then the job
// bytes to the end of the payload. A peer hello carries u32 K; its
// header's rank field is the sender's rank.

// appendAssignment encodes the peer table addrs (one listen address per
// rank, each 1–255 bytes) and job into dst.
func appendAssignment(dst []byte, addrs []string, job []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(addrs)))
	for _, a := range addrs {
		dst = append(dst, byte(len(a)))
		dst = append(dst, a...)
	}
	return append(dst, job...)
}

// parseAssignment decodes an assignment payload into the peer table and
// the job, which views p.
func parseAssignment(p []byte) (addrs []string, job []byte, err error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("comm: truncated assignment")
	}
	k := binary.LittleEndian.Uint32(p)
	p = p[4:]
	// Every entry takes at least two bytes, which bounds the table before
	// anything is allocated on the header's word.
	if k == 0 || uint64(k) > uint64(len(p)/2) {
		return nil, nil, fmt.Errorf("comm: assignment for %d workers in %d bytes", k, len(p))
	}
	addrs = make([]string, k)
	for r := range addrs {
		n := 0
		if len(p) > 0 {
			n = int(p[0])
		}
		if n == 0 || len(p) < 1+n {
			return nil, nil, fmt.Errorf("comm: assignment's address of rank %d is empty or truncated", r)
		}
		addrs[r] = string(p[1 : 1+n])
		p = p[1+n:]
	}
	return addrs, p, nil
}

// peerHello is the frame each end of a peer connection sends first: the
// sender's rank and the size of the cluster it was assigned to.
func peerHello(rank, k int) frame {
	return frame{op: opPeer, rank: int32(rank), payload: binary.LittleEndian.AppendUint32(nil, uint32(k))}
}

// parsePeerHello returns the rank a peer hello claims, checked against a
// cluster of k: a frame of another kind, another cluster size or a rank
// outside 0..k−1 is refused.
func parsePeerHello(f frame, k int) (int, error) {
	if f.op != opPeer || f.seq != 0 || f.kind != "" || len(f.payload) != 4 {
		return -1, fmt.Errorf("comm: expected a peer hello, got op=%d seq=%d kind=%q with %d payload bytes", f.op, f.seq, f.kind, len(f.payload))
	}
	if got := binary.LittleEndian.Uint32(f.payload); uint64(got) != uint64(k) {
		return -1, fmt.Errorf("comm: peer hello from a cluster of %d, want %d", got, k)
	}
	if f.rank < 0 || int(f.rank) >= k {
		return -1, fmt.Errorf("comm: peer hello from rank %d outside a cluster of %d", f.rank, k)
	}
	return int(f.rank), nil
}

// meanF64s stores into dst the mean of the K little-endian float64
// vectors in parts, reading the received bytes once: a tile of dst at a
// time, the first part is stored, the middle parts are added and the
// last is added and scaled by 1/K — tensor.Mean's ((v0+v1)+…)·(1/K)
// association, so the result equals decoding every part and calling
// tensor.Mean bit for bit.
//
// self is the index of the part that is dst's own memory image (an
// all-reduce in place, tensor.ViewLE), or −1 when no part shares dst.
// That part's tile is not decoded into itself: at self = 0 the tile
// already holds v0, and at a later self it is saved before v0 overwrites
// it and folded from the saved copy in its turn, so every operand and
// every operation is the one the unshared fold applies.
//
//fda:noalloc
func meanF64s(dst []float64, parts [][]byte, self int) error {
	for r, p := range parts {
		if len(p) != 8*len(dst) {
			return fmt.Errorf("rank %d contribution: float payload %d bytes, want %d", r, len(p), 8*len(dst)) //fda:allow(noalloc, argument boxing on the protocol-error path only)
		}
	}
	const tile = 512 // elements: K+1 tiles of 4 KiB stay in L1
	var saved [tile]float64
	last := len(parts) - 1
	inv := 1 / float64(len(parts))
	for lo := 0; lo < len(dst); lo += tile {
		hi := min(lo+tile, len(dst))
		d := dst[lo:hi]
		part := func(r int) []byte {
			if r == self {
				return tensor.ViewLE(saved[:len(d)])
			}
			return parts[r][8*lo : 8*hi]
		}
		if self > 0 {
			copy(saved[:], d)
		}
		if self != 0 {
			tensor.DecodeLE(d, parts[0][8*lo:8*hi])
		}
		for r := 1; r < last; r++ {
			tensor.AddScaleLE(d, part(r), 1)
		}
		if last > 0 {
			tensor.AddScaleLE(d, part(last), inv)
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
