package comm

import (
	"math"
	"testing"
)

// roundDriver drives each fabric's all-reduces from a goroutine of its
// own, as separate worker processes would. The returned function runs one
// round — rank r all-reduces vecs[r] under kind — and returns once every
// rank has; the goroutines end with the test.
func roundDriver(t testing.TB, fabs []*TCPFabric) (round func(kind string, vecs [][][]float64)) {
	type job struct {
		kind string
		vec  [][]float64
	}
	start := make([]chan job, len(fabs))
	done := make(chan struct{}, len(fabs))
	for r, f := range fabs {
		start[r] = make(chan job)
		go func() {
			for j := range start[r] {
				f.AllReduce(j.kind, j.vec)
				done <- struct{}{}
			}
		}()
		t.Cleanup(func() { close(start[r]) })
	}
	return func(kind string, vecs [][][]float64) {
		for r := range fabs {
			start[r] <- job{kind, vecs[r]}
		}
		for range fabs {
			<-done
		}
	}
}

// roundVecs is one n-element vector per rank, distinct across ranks.
func roundVecs(ranks, n int) [][][]float64 {
	vecs := make([][][]float64, ranks)
	for r := range vecs {
		vecs[r] = [][]float64{make([]float64, n)}
		for i := range vecs[r][0] {
			vecs[r][0][i] = math.Sin(float64(i + r))
		}
	}
	return vecs
}

// BenchmarkLoopbackRound times one all-reduce round of the socket fabric
// over loopback, the ranks and the coordinator in this process: model is
// the 94 436-element round of the repository benchmark's dist workloads
// at K = 2, state its two-scalar round, and model/k3 the model round at
// K = 3, where the middle rank folds its own part from a saved tile
// (meanF64s). It is the collective probe: run it with -cpuprofile for
// the round's split between system calls, moves, CRC and fold.
func BenchmarkLoopbackRound(b *testing.B) {
	for _, c := range []struct {
		name, kind string
		k, n       int
	}{{"model", "model", 2, 94436}, {"state", "state", 2, 2}, {"model/k3", "model", 3, 94436}} {
		b.Run(c.name, func(b *testing.B) {
			_, _, fabs := loopback(b, c.k)
			round := roundDriver(b, fabs)
			vecs := roundVecs(len(fabs), c.n)
			round(c.kind, vecs) // warm-up: buffers grow to the round's size
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				round(c.kind, vecs)
			}
		})
	}
}
