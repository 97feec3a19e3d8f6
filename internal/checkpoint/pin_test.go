package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// TestMarshalBytesPinned pins the encoder's output across builds and
// rewrites: the run registry addresses prefix snapshots by these bytes,
// so a codec change that moved one byte would orphan every stored
// snapshot. The digests were taken from the streaming encoder the
// in-memory one replaced; the plain snapshot must stay version 1.
func TestMarshalBytesPinned(t *testing.T) {
	vec := func(n int, a, b float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = a*float64(i) - b/float64(i+1)
		}
		return v
	}
	plain := &Snapshot{
		Step:   -3,
		Params: []float64{math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff4_0000_0000_0abc), math.Inf(-1), 1e-310, 2.5, -7, 0, 3.25},
	}
	sectioned := &Snapshot{
		Step:     1 << 40,
		Params:   vec(37, 0.37, 3),
		W0:       vec(37, -0.11, 1),
		Sections: map[string][]float64{"opt.v": vec(13, 1e-3, 2), "opt.m": vec(9, -2, 0.5), "empty": {}},
		Counters: map[string]uint64{"rng.pos": 1<<63 + 5, "t": 1234, "meter.b.model": 0},
	}
	for _, c := range []struct {
		name string
		s    *Snapshot
		want string
	}{
		{"v1", plain, "5f5525265ad25923f75c68126223431f4e1fe7b4080ff8563ad8a64118d75e35"},
		{"v2", sectioned, "e3e21857cd27402be86c89b57f3adf4a1527c3ecee3703c0ab9c0c1f587c58ab"},
	} {
		b, err := Marshal(c.s)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: Marshal sha256 %s, pinned %s", c.name, got, c.want)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		again, err := Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, again) {
			t.Errorf("%s: decode and re-encode moved bytes", c.name)
		}
	}
}
