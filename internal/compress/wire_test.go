package compress

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// wireCase runs the exactness contract on one (codec, vector) pair:
// Decode(Encode(v)) must be bit-for-bit equal to the in-process
// Roundtrip(v) reconstruction, and the original v must be untouched.
func wireCase(t *testing.T, c Codec, v []float64) {
	t.Helper()
	orig := append([]float64(nil), v...)

	want := make([]float64, len(v))
	c.Roundtrip(want, v)

	payload := c.Encode(v)
	got := make([]float64, len(v))
	for i := range got {
		got[i] = math.NaN() // decode must overwrite every slot
	}
	if err := c.Decode(got, payload); err != nil {
		t.Fatalf("%s n=%d: decode: %v", c.Name(), len(v), err)
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d: wire reconstruction[%d] = %v, roundtrip = %v",
				c.Name(), len(v), i, got[i], want[i])
		}
		if math.Float64bits(v[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s n=%d: Encode mutated input[%d]", c.Name(), len(v), i)
		}
	}
}

// edgeVectors builds the shapes the wire format must survive: empty,
// length 1, lengths that are not multiples of the quantizer's 8-bit
// packing chunk, and vectors with magnitude ties for top-k.
func edgeVectors(seed uint64) [][]float64 {
	rng := tensor.NewRNG(seed)
	shapes := []int{0, 1, 2, 3, 7, 8, 9, 13, 64, 65, 100, 129}
	out := make([][]float64, 0, len(shapes)+2)
	for _, n := range shapes {
		v := make([]float64, n)
		tensor.Normal(rng, v, 0, 1)
		out = append(out, v)
	}
	// Magnitude ties: ±x pairs force the top-k tie-quota path.
	out = append(out, []float64{1, -1, 2, -2, 2, 0.5, -0.5, 2})
	// Constant vector: quantize's degenerate hi == lo range.
	out = append(out, []float64{3.25, 3.25, 3.25, 3.25, 3.25})
	// Degenerate range with mixed zero signs: +0 == −0 numerically, so
	// hi == lo, but Roundtrip copies the input verbatim — the wire must
	// preserve the sign bits, not replay the constant lo.
	out = append(out, []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)})
	return out
}

func TestWireMatchesRoundtripTopK(t *testing.T) {
	for _, frac := range []float64{0.01, 0.1, 0.5, 1} {
		for _, v := range edgeVectors(7) {
			wireCase(t, TopK{Fraction: frac}, v)
		}
	}
}

func TestWireMatchesRoundtripQuantize(t *testing.T) {
	for _, bits := range []int{1, 2, 3, 7, 8, 9, 16} {
		for _, v := range edgeVectors(11) {
			wireCase(t, Quantize{Bits: bits}, v)
		}
	}
}

func TestWireMatchesRoundtripChain(t *testing.T) {
	chains := []Chain{
		{},
		{Stages: []Codec{TopK{Fraction: 0.3}}},
		{Stages: []Codec{TopK{Fraction: 0.3}, Quantize{Bits: 8}}},
		{Stages: []Codec{Quantize{Bits: 6}, TopK{Fraction: 0.5}}},
		{Stages: []Codec{TopK{Fraction: 0.5}, TopK{Fraction: 0.5}, Quantize{Bits: 4}}},
	}
	for _, c := range chains {
		for _, v := range edgeVectors(13) {
			wireCase(t, c, v)
		}
	}
}

// TestWireLosslessStages pins exact identity where a stage is lossless:
// TopK keeping everything and the quantizer's degenerate constant range
// reconstruct the input bit-for-bit. (Lossy settings are covered by the
// Roundtrip-equality contract above; their documented tolerance is
// whatever Roundtrip produces, which TestQuantizeError in
// compress_test.go bounds.)
func TestWireLosslessStages(t *testing.T) {
	rng := tensor.NewRNG(3)
	v := make([]float64, 33)
	tensor.Normal(rng, v, 0, 1)

	got := make([]float64, len(v))
	full := TopK{Fraction: 1}
	if err := full.Decode(got, full.Encode(v)); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("TopK(1.0) wire not lossless at %d", i)
		}
	}

	konst := []float64{-2.5, -2.5, -2.5}
	q := Quantize{Bits: 2}
	got = make([]float64, len(konst))
	if err := q.Decode(got, q.Encode(konst)); err != nil {
		t.Fatal(err)
	}
	for i := range konst {
		if got[i] != konst[i] {
			t.Fatalf("constant-range quantize wire not lossless at %d", i)
		}
	}

	var dense Chain
	got = make([]float64, len(v))
	if err := dense.Decode(got, dense.Encode(v)); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("dense (empty chain) wire not lossless at %d", i)
		}
	}
}

// TestWireCorruptionDetected flips bytes across the frame and asserts
// the CRC (or a structural check) rejects every corruption.
func TestWireCorruptionDetected(t *testing.T) {
	rng := tensor.NewRNG(5)
	v := make([]float64, 20)
	tensor.Normal(rng, v, 0, 1)
	c := TopK{Fraction: 0.25}
	payload := c.Encode(v)
	dst := make([]float64, len(v))
	for i := range payload {
		bad := append([]byte(nil), payload...)
		bad[i] ^= 0x41
		if err := c.Decode(dst, bad); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
	if err := c.Decode(dst, payload[:len(payload)-3]); err == nil {
		t.Fatal("truncated payload went undetected")
	}
	if err := c.Decode(make([]float64, len(v)+1), payload); err == nil {
		t.Fatal("wrong decode length went undetected")
	}
	q := Quantize{Bits: 4}
	if err := q.Decode(dst, payload); err == nil {
		t.Fatal("codec-id mismatch went undetected")
	}
}
