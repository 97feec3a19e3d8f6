package models

import (
	"context"
	"encoding/binary"
	"hash/crc64"
	"math"
	"testing"

	"repro/internal/core"
)

// trajectoryDigests ties this build's floating-point results to the build
// the constants were captured on (the pure-Go kernels at PR 15): for each
// zoo model, 25 LinearFDA steps at K = 2 from a fixed seed, then the
// CRC-64/ECMA of the global model's IEEE bits and the charged byte count.
// The parity suites compare code paths inside one binary; this compares
// binaries. It must pass unchanged in the default (assembly) build and
// under -tags purego — that is the end-to-end proof that the SIMD kernels
// change no result bit, and the reason runstore.SpecVersion did not move.
// A deliberate numeric change updates these constants together with
// SpecVersion.
var trajectoryDigests = map[string]struct {
	model uint64
	bytes int64
}{
	"lenet5s":      {0x8174f8e8d6f7baa4, 42288},
	"vgg16s":       {0xc5c96fad9d110483, 294064},
	"densenet121s": {0x527c3bded1fb1f15, 1381040},
	"densenet201s": {0x2b346997411b48f5, 3203440},
	"convnexts":    {0x4b88b08c5cd1a09c, 755888},
}

func TestTrajectoryDigestMatchesPinnedBuild(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	for _, s := range Catalog() {
		train, test := DatasetFor(s, 5)
		cfg := core.Config{
			K: 2, BatchSize: 16, Seed: 5,
			Model: s.Build, Optimizer: s.Optimizer,
			Train: train, Test: test,
			MaxSteps: 25, EvalEvery: 25,
		}
		sess, err := core.NewSession(context.Background(), cfg, core.NewLinearFDA(s.ThetaGrid[0]))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		w := make([]float64, sess.NumParams())
		sess.GlobalModel(w)
		buf := make([]byte, 8*len(w))
		for i, x := range w {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		got := crc64.Checksum(buf, tab)
		want, ok := trajectoryDigests[s.Name]
		if !ok || got != want.model || res.CommBytes != want.bytes {
			t.Errorf("%s: model digest %#016x, %d bytes charged (%d syncs); pinned %#016x, %d",
				s.Name, got, res.CommBytes, res.SyncCount, want.model, want.bytes)
		}
	}
}
