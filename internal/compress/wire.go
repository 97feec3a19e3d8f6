// Wire serialization for the codecs: Encode materializes a compressed
// vector as real framed bytes and Decode reconstructs from them, so a
// socket fabric can transmit codec-compressed drifts instead of merely
// accounting their hypothetical size.
//
// Frame layout (little-endian):
//
//	u32 payLen   — length of everything after this prefix
//	u8  codecID  — idDense/idTopK/idQuant (the decoding schema)
//	u32 n        — original vector length
//	body         — codec-specific (see each Encode)
//	u32 crc      — CRC-32 (IEEE) over codecID..body
//
// Exactness contract (pinned by TestWireMatchesRoundtrip): for every
// codec, Decode(Encode(v)) is bit-for-bit equal to the in-process
// Roundtrip(v) reconstruction. Values therefore travel as full float64
// (TopK pairs) or as the exact (lo, q, scale) triple that Roundtrip's
// arithmetic produces (Quantize) — the wire is the reference
// implementation's reconstruction, not a re-approximation of it. The
// charged wire size stays Roundtrip's cost-model figure (float32-based,
// the paper's accounting); the physically framed bytes are reported by
// len(Encode(v)) and may differ — exactness is favored over matching
// the hypothetical float32 wire, and the divergence is confined to the
// diagnostic CostReport.WireBytes channel.
package compress

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/tensor"
)

const (
	idDense byte = 0
	idTopK  byte = 1
	idQuant byte = 2
)

// frameHeader appends the prefix (payLen placeholder, codecID, n).
func frameHeader(dst []byte, id byte, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, 0) // patched by seal
	dst = append(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return dst
}

// seal patches the length prefix and appends the CRC trailer.
func seal(frame []byte) []byte {
	crc := crc32.ChecksumIEEE(frame[4:])
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// open verifies the prefix, codec ID, vector length and CRC, returning
// the body.
func open(payload []byte, wantID byte, wantN int) ([]byte, error) {
	if len(payload) < 13 {
		return nil, fmt.Errorf("compress: wire payload truncated (%d bytes)", len(payload))
	}
	payLen := int(binary.LittleEndian.Uint32(payload))
	if payLen != len(payload)-4 {
		return nil, fmt.Errorf("compress: wire length prefix %d, frame carries %d", payLen, len(payload)-4)
	}
	crcOff := len(payload) - 4
	want := binary.LittleEndian.Uint32(payload[crcOff:])
	if got := crc32.ChecksumIEEE(payload[4:crcOff]); got != want {
		return nil, fmt.Errorf("compress: wire CRC mismatch: frame %08x, computed %08x", want, got)
	}
	if id := payload[4]; id != wantID {
		return nil, fmt.Errorf("compress: wire codec id %d, decoder expects %d", id, wantID)
	}
	if n := int(binary.LittleEndian.Uint32(payload[5:])); n != wantN {
		return nil, fmt.Errorf("compress: wire vector length %d, decoder expects %d", n, wantN)
	}
	return payload[9:crcOff], nil
}

// Encode implements Codec. Body: u32 kept count, then kept ×
// (u32 index, f64 value), indices ascending.
func (c TopK) Encode(v []float64) []byte {
	idx := c.kept(v)
	frame := frameHeader(make([]byte, 0, 13+12*len(idx)+4), idTopK, len(v))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(idx)))
	for _, i := range idx {
		frame = binary.LittleEndian.AppendUint32(frame, uint32(i))
		frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(v[i]))
	}
	return seal(frame)
}

// Decode implements Codec.
func (c TopK) Decode(dst []float64, payload []byte) error {
	body, err := open(payload, idTopK, len(dst))
	if err != nil {
		return err
	}
	if len(body) < 4 {
		return fmt.Errorf("compress: TopK wire body truncated")
	}
	kept := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if len(body) != 12*kept {
		return fmt.Errorf("compress: TopK wire carries %d bytes for %d pairs", len(body), kept)
	}
	for i := range dst {
		dst[i] = 0
	}
	prev := -1
	for p := 0; p < kept; p++ {
		i := int(binary.LittleEndian.Uint32(body[12*p:]))
		if i <= prev || i >= len(dst) {
			return fmt.Errorf("compress: TopK wire index %d out of order or range", i)
		}
		prev = i
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[12*p+4:]))
	}
	return nil
}

// Encode implements Codec. Body: f64 lo, f64 hi, then the level
// indices q packed Bits per component (little-endian bit order). The
// decoder recomputes lo + q·scale with the exact arithmetic Roundtrip
// uses, so the reconstruction is bit-equal to the in-process one. The
// degenerate hi == lo range carries the components verbatim instead of
// level bits: Roundtrip copies the input in that case, and merely
// replaying the constant lo would lose bit patterns that compare equal
// but are not identical (negative zeros), breaking the
// Decode(Encode(v)) == Roundtrip(v) contract.
func (c Quantize) Encode(v []float64) []byte {
	if c.Bits < 1 || c.Bits > 16 {
		panic(fmt.Sprintf("compress: Quantize bits %d outside [1,16]", c.Bits))
	}
	n := len(v)
	frame := frameHeader(make([]byte, 0, 13+16+(n*c.Bits+7)/8+4), idQuant, n)
	if n == 0 {
		return seal(frame)
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(lo))
	frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(hi))
	if hi == lo {
		return seal(tensor.AppendLE(frame, v))
	}
	levels := float64(int(1)<<c.Bits) - 1
	scale := (hi - lo) / levels
	var acc uint32
	accBits := 0
	for _, x := range v {
		q := uint32(math.Round((x - lo) / scale))
		acc |= q << accBits
		accBits += c.Bits
		for accBits >= 8 {
			frame = append(frame, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		frame = append(frame, byte(acc))
	}
	return seal(frame)
}

// Decode implements Codec.
func (c Quantize) Decode(dst []float64, payload []byte) error {
	if c.Bits < 1 || c.Bits > 16 {
		panic(fmt.Sprintf("compress: Quantize bits %d outside [1,16]", c.Bits))
	}
	body, err := open(payload, idQuant, len(dst))
	if err != nil {
		return err
	}
	n := len(dst)
	if n == 0 {
		if len(body) != 0 {
			return fmt.Errorf("compress: Quantize wire body %d bytes for empty vector", len(body))
		}
		return nil
	}
	if len(body) < 16 {
		return fmt.Errorf("compress: Quantize wire body truncated")
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(body))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
	body = body[16:]
	if hi == lo {
		if len(body) != 8*n {
			return fmt.Errorf("compress: Quantize degenerate-range wire carries %d bytes, want %d", len(body), 8*n)
		}
		tensor.DecodeLE(dst, body)
		return nil
	}
	if want := (n*c.Bits + 7) / 8; len(body) != want {
		return fmt.Errorf("compress: Quantize wire carries %d level bytes, want %d", len(body), want)
	}
	levels := float64(int(1)<<c.Bits) - 1
	scale := (hi - lo) / levels
	mask := uint32(1)<<c.Bits - 1
	var acc uint32
	accBits := 0
	pos := 0
	for i := range dst {
		for accBits < c.Bits {
			acc |= uint32(body[pos]) << accBits
			pos++
			accBits += 8
		}
		q := float64(acc & mask)
		acc >>= c.Bits
		accBits -= c.Bits
		dst[i] = lo + q*scale
	}
	return nil
}

// Encode implements Codec: the chain is applied for real — every
// stage but the last is round-tripped locally (exactly as Roundtrip
// composes them) and the final stage's encoder frames the survivor, so
// the transmitted payload is the last stage's wire format of the
// partially compressed vector. An empty chain frames the dense vector.
func (c Chain) Encode(v []float64) []byte {
	if len(c.Stages) == 0 {
		return encodeDense(v)
	}
	cur := make([]float64, len(v))
	copy(cur, v)
	for _, st := range c.Stages[:len(c.Stages)-1] {
		st.Roundtrip(cur, cur)
	}
	return c.Stages[len(c.Stages)-1].Encode(cur)
}

// Decode implements Codec: only the final stage materialized on the
// wire, so only it decodes.
func (c Chain) Decode(dst []float64, payload []byte) error {
	if len(c.Stages) == 0 {
		return decodeDense(dst, payload)
	}
	return c.Stages[len(c.Stages)-1].Decode(dst, payload)
}

// encodeDense frames a vector verbatim (empty-chain wire format).
func encodeDense(v []float64) []byte {
	frame := frameHeader(make([]byte, 0, 13+8*len(v)+4), idDense, len(v))
	return seal(tensor.AppendLE(frame, v))
}

func decodeDense(dst []float64, payload []byte) error {
	body, err := open(payload, idDense, len(dst))
	if err != nil {
		return err
	}
	if len(body) != 8*len(dst) {
		return fmt.Errorf("compress: dense wire carries %d bytes, want %d", len(body), 8*len(dst))
	}
	tensor.DecodeLE(dst, body)
	return nil
}
