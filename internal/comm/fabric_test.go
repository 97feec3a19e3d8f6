package comm

import (
	"context"
	"math"
	"math/big"
	"slices"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// Compile-time checks: every backend implements Fabric, and the
// time-modeling faces sit where expected.
var (
	_ Fabric         = (*Cluster)(nil)
	_ Fabric         = (*SimFabric)(nil)
	_ Fabric         = (*TCPFabric)(nil)
	_ VirtualClocker = (*SimFabric)(nil)
	_ StepTimer      = (*SimFabric)(nil)
	_ TransferTimer  = (*SimFabric)(nil)
)

// TestPerWorkerBytesOverflowBoundary pins the overflow fix: the ring
// formula ⌊2·payload·(K−1)/K⌋ must match exact big-integer arithmetic
// even when the old intermediate product 2·payload·(K−1) would have
// wrapped int64.
func TestPerWorkerBytesOverflowBoundary(t *testing.T) {
	cm := DefaultCostModel()
	ref := func(n int, k int) int64 {
		payload := new(big.Int).Mul(big.NewInt(int64(n)), big.NewInt(int64(cm.BytesPerParam)))
		num := new(big.Int).Mul(payload, big.NewInt(2*int64(k-1)))
		return new(big.Int).Div(num, big.NewInt(int64(k))).Int64()
	}
	cases := []struct{ n, k int }{
		{100, 4},                        // small regression anchor
		{math.MaxInt64 / 8, 4},          // payload ≈ MaxInt64/2: old code overflowed
		{math.MaxInt64 / 8, 7},          // non-divisible remainder path
		{math.MaxInt64/8 - 1, 44},       // the paper's K
		{math.MaxInt64 / 16, 3},         // odd K
		{(math.MaxInt64 / 4) / 4, 1000}, // large K, huge payload
	}
	for _, c := range cases {
		got := cm.PerWorkerBytes(c.n, c.k)
		want := ref(c.n, c.k)
		if got != want {
			t.Fatalf("PerWorkerBytes(%d, %d) = %d, want %d", c.n, c.k, got, want)
		}
		if got <= 0 {
			t.Fatalf("PerWorkerBytes(%d, %d) = %d overflowed", c.n, c.k, got)
		}
	}
	// Exhaustive small-value agreement with the naive formula, which is
	// exact where it cannot overflow.
	for k := 2; k <= 9; k++ {
		for n := 0; n <= 1000; n += 37 {
			payload := int64(n) * int64(cm.BytesPerParam)
			want := 2 * payload * int64(k-1) / int64(k)
			if got := cm.PerWorkerBytes(n, k); got != want {
				t.Fatalf("PerWorkerBytes(%d, %d) = %d, naive %d", n, k, got, want)
			}
		}
	}
}

func TestBroadcast(t *testing.T) {
	c := NewCluster(3)
	vecs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	rep := c.Broadcast("model", 1, vecs)
	for i, v := range vecs {
		if v[0] != 3 || v[1] != 4 {
			t.Fatalf("worker %d holds %v after broadcast from root 1", i, v)
		}
	}
	// Naive broadcast: (K−1)·payload = 2·(2·4) = 16 bytes.
	if rep.Bytes != 16 || c.Meter().BytesFor("model") != 16 {
		t.Fatalf("broadcast charged %d (meter %d)", rep.Bytes, c.Meter().BytesFor("model"))
	}
}

func TestCostReportConsistency(t *testing.T) {
	c := NewCluster(4)
	vecs := [][]float64{{1}, {2}, {3}, {4}}
	rep := c.AllReduce("model", vecs)
	if rep.Elements != 1 || rep.Bytes != rep.PerWorker*4 {
		t.Fatalf("report %+v inconsistent", rep)
	}
	if rep.Bytes != c.Meter().TotalBytes() {
		t.Fatalf("report charged %d, meter holds %d", rep.Bytes, c.Meter().TotalBytes())
	}
}

// TestSimFabricClock pins the virtual-clock model: deterministic across
// builds, advanced by collectives (slowest link gates) and steps
// (slowest worker gates, straggler schedule applied).
func TestSimFabricClock(t *testing.T) {
	run := func() *SimFabric {
		f := NewSimFabric(4, DefaultCostModel(), ScenarioStraggler)
		vecs := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 1, 1}}
		for step := 1; step <= 10; step++ {
			f.StepDone(step)
			f.AllReduceMean("state", make([]float64, 3), vecs)
		}
		f.AllReduce("model", vecs)
		return f
	}
	a, b := run(), run()
	if a.VirtualTime() != b.VirtualTime() {
		t.Fatalf("clock nondeterministic: %v vs %v", a.VirtualTime(), b.VirtualTime())
	}
	if a.VirtualTime() <= 0 {
		t.Fatal("clock never advanced")
	}
	if got, want := a.Meter().TotalBytes(), NewCluster(4).Cost().TotalBytes(3, 4)*11; got != want {
		t.Fatalf("sim charged %d bytes, reference %d", got, want)
	}

	// Straggler injection: the scheduled step costs more than a plain one.
	plain := NewSimFabric(4, DefaultCostModel(), ScenarioLAN)
	slow := NewSimFabric(4, DefaultCostModel(), ScenarioStraggler)
	plain.StepDone(5) // ScenarioStraggler fires every 5 steps
	slow.StepDone(5)
	if slow.VirtualTime() <= plain.VirtualTime() {
		t.Fatalf("straggler step %v not slower than plain %v", slow.VirtualTime(), plain.VirtualTime())
	}
	before := slow.VirtualTime()
	slow.StepDone(6) // off-schedule: nominal cost
	if cost := slow.VirtualTime() - before; cost >= before {
		t.Fatalf("off-schedule step cost %v, straggler step cost %v", cost, before)
	}

	// Clock restore (checkpoint path).
	a.SetVirtualTime(1.5)
	if a.VirtualTime() != 1.5 {
		t.Fatal("SetVirtualTime ignored")
	}
}

func TestScenarioByName(t *testing.T) {
	for _, name := range []string{"lan", "fedwan", "straggler"} {
		s, err := ScenarioByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ScenarioByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := ScenarioByName("dialup"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestTCPFabricCollectives drives the raw socket fabric without any
// training on top: K fabric clients against a loopback coordinator,
// checking the mean, the meter, the rank order of the parts (K = 3, so a
// middle rank reads one peer on either side of its own part), the exact
// payload bytes each rank moved and the result round trip, for parts
// written both directly and through the writer goroutines. A rank sends
// from its caller's vector, which the caller may reuse the moment the
// collective returns: each rank overwrites its input with NaN right
// after AllReduce or Gather returns, so a write still in flight would
// put NaN in a peer's result, and -race reports the overlap.
func TestTCPFabricCollectives(t *testing.T) {
	const k = 3
	coord, err := ListenCoordinator("127.0.0.1:0", k)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	serveDone := make(chan error, 1)
	var results [][]byte
	go func() {
		var err error
		results, err = coord.Serve(context.Background(), []byte("job-payload"))
		serveDone <- err
	}()

	inputs := [][]float64{{1, 2, 8}, {4, 0, 1}, {1, 1, 0}}
	want := make([]float64, 3)
	for i := range want {
		want[i] = (inputs[0][i] + inputs[1][i] + inputs[2][i]) / k
	}
	// One rank's payload bytes per round: its contribution out to each of
	// the K − 1 peers, and each peer's in.
	const part = 8 * 3
	const rankWire = (k-1)*part + (k-1)*part

	var wg sync.WaitGroup
	errs := make([]error, k)
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = r.(*FabricError)
				}
			}()
			f, job, err := DialFabric(context.Background(), coord.Addr(), DefaultCostModel())
			if err != nil {
				errs[w] = err
				return
			}
			defer f.Close()
			if string(job) != "job-payload" {
				t.Errorf("rank %d job payload %q", f.Rank(), job)
			}
			vec := append([]float64(nil), inputs[f.Rank()]...)
			rep := f.AllReduce("model", [][]float64{vec})
			mean := reuse(vec)
			for i := range mean {
				if math.Float64bits(mean[i]) != math.Float64bits(want[i]) {
					t.Errorf("rank %d mean[%d] = %v want %v", f.Rank(), i, mean[i], want[i])
				}
			}
			if rep.Bytes != f.Meter().TotalBytes() {
				t.Errorf("rank %d report/meter mismatch", f.Rank())
			}
			if rep.WireBytes != rankWire {
				t.Errorf("rank %d moved %d wire bytes, want %d", f.Rank(), rep.WireBytes, rankWire)
			}
			// Gather: every rank sees every contribution in rank order.
			own := slices.Clone(inputs[f.Rank()])
			got := f.Gather([][]float64{own})
			reuse(own)
			if len(got) != k {
				t.Errorf("rank %d gathered %d vectors", f.Rank(), len(got))
			}
			for r := range got {
				if !slices.Equal(got[r], inputs[r]) {
					t.Errorf("rank %d gathered %v at rank %d, want %v", f.Rank(), got[r], r, inputs[r])
				}
			}
			// Parts above directWriteMax go through the writer goroutines: a
			// 1 024-element round, then SketchFDA's state at L = 5, M = 250
			// (1 251 elements, 10 008 bytes).
			var bigWire int64
			for _, n := range []int{1024, 1251} {
				vecs := roundVecs(k, n)
				want := make([]float64, n)
				tensor.Mean(want, vecs[0][0], vecs[1][0], vecs[2][0])
				rep := f.AllReduce("model", vecs[f.Rank()])
				mean := reuse(vecs[f.Rank()][0])
				if rep.WireBytes != 2*(k-1)*8*int64(n) {
					t.Errorf("rank %d moved %d wire bytes in a %d-element all-reduce, want %d", f.Rank(), rep.WireBytes, n, 2*(k-1)*8*n)
				}
				bigWire += rep.WireBytes
				for i := range mean {
					if math.Float64bits(mean[i]) != math.Float64bits(want[i]) {
						t.Errorf("rank %d mean of the %d-element round [%d] = %v want %v", f.Rank(), n, i, mean[i], want[i])
						break
					}
				}
			}
			if moved, want := f.MovedBytes(), 2*rankWire+bigWire; moved != want { // AllReduce + Gather + two AllReduces
				t.Errorf("rank %d moved %d payload bytes in four collectives, want %d", f.Rank(), moved, want)
			}
			errs[w] = f.SendResult([]byte{byte('a' + f.Rank())})
		}(w)
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", w, err)
		}
	}
	for r, res := range results {
		if len(res) != 1 || res[0] != byte('a'+r) {
			t.Fatalf("rank %d result %q", r, res)
		}
	}
}

// reuse returns a copy of v and then overwrites v with NaN, as a caller
// that reuses its vector once a collective has returned would.
func reuse(v []float64) []float64 {
	c := slices.Clone(v)
	tensor.Fill(v, math.NaN())
	return c
}
