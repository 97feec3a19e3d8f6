// Package compress implements the gradient/model compression techniques
// the paper's related-work section names as composable with FDA: top-k
// sparsification (Aji & Heafield) and uniform quantization (as in QSGD-
// style schemes). FDA only decides *when* to synchronize; these codecs
// shrink *what* is transmitted during a synchronization, so their savings
// stack multiplicatively with FDA's (paper §2, "Compression").
//
// Codecs are lossy round-trips: Roundtrip reconstructs an approximation
// and prices its wire size in bytes, and Encode/Decode carry the same
// reconstruction as real framed bytes. The trainer applies them to worker
// drifts during a synchronization and charges the compressed size.
package compress

import (
	"fmt"
	"math"
	"sort"
)

// Codec is a lossy vector compressor with explicit wire accounting and
// a real byte-level wire format (wire.go).
type Codec interface {
	// Name identifies the codec in experiment output.
	Name() string
	// Roundtrip writes the decode(encode(v)) reconstruction into dst
	// (which may alias v) and returns the wire size in bytes that
	// transmitting encode(v) would cost.
	Roundtrip(dst, v []float64) int
	// Encode produces the framed wire payload for v.
	Encode(v []float64) []byte
	// Decode reconstructs into dst (len(dst) must equal the encoded n)
	// from a payload produced by the same codec configuration.
	Decode(dst []float64, payload []byte) error
}

// TopK keeps only the Fraction largest-magnitude components, zeroing the
// rest. Wire format: one (index, value) pair per kept component
// (4 + 4 bytes, int32 index and float32 value).
type TopK struct {
	// Fraction of components kept, in (0, 1].
	Fraction float64
}

// Name implements Codec.
func (c TopK) Name() string { return fmt.Sprintf("top%g%%", c.Fraction*100) }

// keepCount returns how many components TopK retains for an n-vector.
// It depends only on n, so every worker can price a peer's payload
// without seeing it.
func (c TopK) keepCount(n int) int {
	if c.Fraction <= 0 || c.Fraction > 1 {
		panic(fmt.Sprintf("compress: TopK fraction %v outside (0,1]", c.Fraction))
	}
	keep := int(math.Ceil(c.Fraction * float64(n)))
	if keep < 1 {
		// Also the n == 0 case: the historical accounting charges one
		// (index, value) pair for an empty vector, and the wire encoding
		// simply carries zero pairs.
		keep = 1
	}
	if n > 0 && keep > n {
		keep = n
	}
	return keep
}

// kept returns the indices TopK retains for v, ascending — the single
// source of truth shared by Roundtrip and the wire Encode so the
// in-process reconstruction and a decoded wire payload are bit-equal.
// Everything strictly above the keep-th largest magnitude is retained,
// then the remaining quota fills with threshold-magnitude components in
// scan order — a plain ">= thresh" scan could exhaust the quota on ties
// and drop a strictly larger component appearing later.
func (c TopK) kept(v []float64) []int {
	n := len(v)
	keep := c.keepCount(n)
	idx := make([]int, 0, keep)
	if keep >= n {
		for i := range v {
			idx = append(idx, i)
		}
		return idx
	}
	mags := make([]float64, n)
	for i, x := range v {
		mags[i] = math.Abs(x)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
	thresh := mags[keep-1]
	above := 0
	for _, m := range mags[:keep] {
		if m > thresh {
			above++
		}
	}
	tieQuota := keep - above
	for i, x := range v {
		m := math.Abs(x)
		switch {
		case m > thresh:
			idx = append(idx, i)
		case m == thresh && tieQuota > 0:
			idx = append(idx, i)
			tieQuota--
		}
	}
	return idx
}

// Roundtrip implements Codec.
func (c TopK) Roundtrip(dst, v []float64) int {
	n := len(v)
	keep := c.keepCount(n)
	if keep >= n {
		copy(dst, v)
		return keep * 8
	}
	idx := c.kept(v)
	// Scatter kept values; idx is ascending, so walking it alongside a
	// zero fill reconstructs in one pass even when dst aliases v.
	j := 0
	for i := range dst[:n] {
		if j < len(idx) && idx[j] == i {
			dst[i] = v[i]
			j++
		} else {
			dst[i] = 0
		}
	}
	return keep * 8
}

// Quantize maps each component onto 2^Bits uniform levels between the
// vector's min and max. Wire format: Bits per component plus two float32
// range scalars.
type Quantize struct {
	// Bits per component, in [1, 16].
	Bits int
}

// Name implements Codec.
func (c Quantize) Name() string { return fmt.Sprintf("q%dbit", c.Bits) }

// Roundtrip implements Codec.
func (c Quantize) Roundtrip(dst, v []float64) int {
	if c.Bits < 1 || c.Bits > 16 {
		panic(fmt.Sprintf("compress: Quantize bits %d outside [1,16]", c.Bits))
	}
	if len(v) == 0 {
		return 8
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
	levels := float64(int(1)<<c.Bits) - 1
	if hi == lo {
		copy(dst, v)
	} else {
		scale := (hi - lo) / levels
		for i, x := range v {
			q := math.Round((x - lo) / scale)
			dst[i] = lo + q*scale
		}
	}
	return (len(v)*c.Bits+7)/8 + 8
}

// Chain composes codecs left to right (for example top-k then quantize).
// Charging only the final stage's wire size on the surviving data is
// subtle to get right for every pairing, so the conservative model here
// charges the sum of all stage outputs' sizes, documenting an upper
// bound; a Chain is therefore never billed below any of its stages.
type Chain struct {
	Stages []Codec
}

// Name implements Codec.
func (c Chain) Name() string {
	s := ""
	for i, st := range c.Stages {
		if i > 0 {
			s += "+"
		}
		s += st.Name()
	}
	return s
}

// Roundtrip implements Codec. The wire cost accumulates across stages —
// the conservative sum the type comment specifies; an earlier version
// charged only the final stage, silently under-billing every chained
// codec. An empty Chain transmits the vector dense at 4 bytes/param,
// consistent with CostModel.BytesPerParam's float32 wire format.
func (c Chain) Roundtrip(dst, v []float64) int {
	if len(c.Stages) == 0 {
		copy(dst, v)
		return len(v) * 4
	}
	cur := make([]float64, len(v))
	copy(cur, v)
	bytes := 0
	for _, st := range c.Stages {
		bytes += st.Roundtrip(cur, cur)
	}
	copy(dst, cur)
	return bytes
}
