package compress

import (
	"math"
	"testing"
)

// FuzzWireDecode drives every Codec decoder with arbitrary frames.
// Decode reconstructs into a fixed-length destination from bytes that
// crossed a socket, so corrupt frames — bad CRCs, lying length
// prefixes, out-of-range TopK indices, short Quantize bodies — must
// come back as errors, never panics or writes past dst.
func FuzzWireDecode(f *testing.F) {
	v := []float64{0.5, -1.25, 2.25, 0, 3e-5}
	f.Add(byte(0), len(v), Chain{}.Encode(v))
	f.Add(byte(1), len(v), TopK{Fraction: 0.4}.Encode(v))
	f.Add(byte(2), len(v), Quantize{Bits: 6}.Encode(v))
	f.Add(byte(2), 0, Quantize{Bits: 6}.Encode(nil))
	f.Add(byte(1), 3, []byte("short and corrupt"))

	f.Fuzz(func(t *testing.T, which byte, n int, payload []byte) {
		if n < 0 || n > 1<<12 {
			return
		}
		dst := make([]float64, n)
		switch which % 3 {
		case 0:
			_ = Chain{}.Decode(dst, payload) // dense framing
		case 1:
			_ = TopK{Fraction: 0.5}.Decode(dst, payload)
		case 2:
			_ = Quantize{Bits: 6}.Decode(dst, payload)
		}
	})
}

// FuzzWireRoundtrip checks the exactness contract on arbitrary
// vectors: for every codec, Decode(Encode(v)) must succeed and equal
// the in-process Roundtrip reconstruction bit for bit.
func FuzzWireRoundtrip(f *testing.F) {
	f.Add(uint8(0), 0.5, -1.25, 2.25, 0.0)
	f.Add(uint8(1), 1e300, -1e-300, 0.0, -0.0)
	f.Add(uint8(2), 3.5, 3.5, 3.5, 3.5)

	f.Fuzz(func(t *testing.T, which uint8, a, b, c, d float64) {
		v := []float64{a, b, c, d}
		var codec Codec
		switch which % 3 {
		case 0:
			codec = Chain{}
		case 1:
			codec = TopK{Fraction: 0.5}
		case 2:
			codec = Quantize{Bits: 8}
		}
		want := make([]float64, len(v))
		copy(want, v)
		codec.Roundtrip(want, want)

		got := make([]float64, len(v))
		if err := codec.Decode(got, codec.Encode(v)); err != nil {
			t.Fatalf("%s: decode of own encoding failed: %v", codec.Name(), err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: component %d: wire %x, roundtrip %x", codec.Name(), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}
