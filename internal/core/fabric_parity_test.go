package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/comm"
)

// fabricRun executes cfg under a fresh strategy on the given fabric and
// returns the Result plus the final averaged global model.
func fabricRun(t *testing.T, cfg Config, mk func() Strategy, fabric comm.Fabric) (Result, []float64) {
	t.Helper()
	cfg.Fabric = fabric
	sess, err := NewSession(context.Background(), cfg, mk())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	params := make([]float64, sess.NumParams())
	sess.GlobalModel(params)
	return res, params
}

// tcpRun executes cfg as a genuinely distributed K-process session over
// a loopback TCP coordinator: K goroutines each drive one rank through
// its own TCPFabric and the full wire protocol. Returns rank 0's Result
// and final global model (all ranks are asserted identical first).
func tcpRun(t *testing.T, cfg Config, mk func() Strategy) (Result, []float64) {
	t.Helper()
	coord, err := comm.ListenCoordinator("127.0.0.1:0", cfg.K)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type out struct {
		res    Result
		params []float64
		err    error
	}
	outs := make([]out, cfg.K)
	var wg sync.WaitGroup
	serveErr := make(chan error, 1)
	go func() {
		// The job payload is unused here — the test injects the config
		// directly — but the rendezvous protocol still delivers it.
		_, err := coord.Serve(ctx, []byte("{}"))
		serveErr <- err
	}()
	for w := 0; w < cfg.K; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if e, ok := r.(error); ok {
						outs[w].err = e
						return
					}
					panic(r)
				}
			}()
			fabric, _, err := comm.DialFabric(ctx, coord.Addr(), comm.DefaultCostModel())
			if err != nil {
				outs[w].err = err
				return
			}
			defer fabric.Close()
			wcfg := cfg
			wcfg.Fabric = fabric
			sess, err := NewSession(ctx, wcfg, mk())
			if err != nil {
				outs[w].err = err
				return
			}
			res, err := sess.Run()
			if err != nil {
				outs[w].err = err
				return
			}
			params := make([]float64, sess.NumParams())
			sess.GlobalModel(params) // a collective: every rank calls it in lockstep
			outs[w] = out{res: res, params: params}
			if err := fabric.SendResult([]byte("ok")); err != nil {
				outs[w].err = err
			}
		}(w)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("coordinator serve: %v", err)
	}
	for w, o := range outs {
		if o.err != nil {
			t.Fatalf("worker %d: %v", w, o.err)
		}
	}
	for w := 1; w < cfg.K; w++ {
		if !reflect.DeepEqual(outs[0].res, outs[w].res) {
			t.Fatalf("rank %d result diverged from rank 0:\n%+v\nvs\n%+v", w, outs[w].res, outs[0].res)
		}
		assertSameVec(t, "tcp rank", outs[0].params, outs[w].params)
	}
	return outs[0].res, outs[0].params
}

func assertSameVec(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: params[%d] = %x vs %x", what, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

// stripTime zeroes the time fields that legitimately differ between
// fabrics (the sim fabric's virtual clock); everything else must match
// bit-for-bit.
func stripTime(r Result) Result {
	r.VirtualSec = 0
	for i := range r.History {
		r.History[i].VirtualSec = 0
	}
	return r
}

// TestCrossFabricParity is the tentpole invariant of the fabric
// refactor: a fixed config trained on the in-process reference, the
// simulated-network fabric and a loopback-TCP multi-process cluster
// produces bit-identical final parameters, identical histories and
// identical per-worker byte accounting for every FDA strategy family
// (and the baselines). Only the virtual clock differs.
func TestCrossFabricParity(t *testing.T) {
	base := testConfig(91)
	base.K = 3
	base.MaxSteps = 30
	base.EvalEvery = 10
	base = base.withDefaults()

	cases := parityStrategies(base)
	// Asynchronous FDA runs only on a clocked fabric; its fabric cell is
	// TestAsyncOutputDigest (SimFabric) and TestAsyncValidation (refusals).
	delete(cases, "AsyncFDA")

	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := base
			refRes, refParams := fabricRun(t, cfg, mk, comm.NewClusterWithCost(cfg.K, comm.DefaultCostModel()))

			simRes, simParams := fabricRun(t, cfg, mk,
				comm.NewSimFabric(cfg.K, comm.DefaultCostModel(), comm.ScenarioFedWAN))
			if simRes.VirtualSec <= 0 {
				t.Fatalf("sim fabric reported no virtual time")
			}
			assertSameVec(t, "sim", refParams, simParams)
			if !reflect.DeepEqual(refRes, stripTime(simRes)) {
				t.Fatalf("sim result diverged:\n%+v\nvs\n%+v", stripTime(simRes), refRes)
			}

			tcpRes, tcpParams := tcpRun(t, cfg, mk)
			assertSameVec(t, "tcp", refParams, tcpParams)
			if !reflect.DeepEqual(refRes, stripTime(tcpRes)) {
				t.Fatalf("tcp result diverged:\n%+v\nvs\n%+v", stripTime(tcpRes), refRes)
			}

			// Per-worker byte counts: every fabric charges the same
			// per-worker cost for the dominant collectives.
			d := len(refParams)
			if per := comm.DefaultCostModel().PerWorkerBytes(d, cfg.K); per <= 0 {
				t.Fatalf("degenerate per-worker cost %d", per)
			}
			if refRes.CommBytes%int64(cfg.K) != 0 {
				t.Fatalf("cluster total %d not divisible by K=%d", refRes.CommBytes, cfg.K)
			}
		})
	}
}

// TestSimFabricSnapshotRestoresClock checks the virtual clock rides the
// session checkpoint: a run cancelled mid-flight and resumed on a fresh
// SimFabric continues to the exact Result (including VirtualSec) of an
// uninterrupted run.
func TestSimFabricSnapshotRestoresClock(t *testing.T) {
	cfg := testConfig(23)
	cfg.K = 3
	cfg.MaxSteps = 24
	cfg.EvalEvery = 8
	cfg = cfg.withDefaults()
	mkFabric := func() comm.Fabric {
		return comm.NewSimFabric(cfg.K, comm.DefaultCostModel(), comm.ScenarioStraggler)
	}

	full := cfg
	full.Fabric = mkFabric()
	ref, err := NewSession(context.Background(), full, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.VirtualSec <= 0 {
		t.Fatal("reference run has no virtual time")
	}

	half := cfg
	half.Fabric = mkFabric()
	s1, err := NewSession(context.Background(), half, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		if _, err := s1.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	resumed := cfg
	resumed.Fabric = mkFabric()
	s2, err := NewSession(context.Background(), resumed, NewLinearFDA(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed sim run diverged:\n%+v\nvs\n%+v", got, want)
	}
}

// TestFabricPerWorkerBytesIdentical pins the per-worker byte accounting
// across fabrics at the meter level: same kinds, same bytes, same op
// counts.
func TestFabricPerWorkerBytesIdentical(t *testing.T) {
	cfg := testConfig(17)
	cfg.K = 3
	cfg.MaxSteps = 20
	cfg.EvalEvery = 10
	cfg = cfg.withDefaults()
	mk := func() Strategy { return NewLinearFDA(0.1) }

	fabrics := map[string]comm.Fabric{
		"ref": comm.NewClusterWithCost(cfg.K, comm.DefaultCostModel()),
		"sim": comm.NewSimFabric(cfg.K, comm.DefaultCostModel(), comm.ScenarioStraggler),
	}
	meters := map[string]map[string]int64{}
	for name, f := range fabrics {
		fabricRun(t, cfg, mk, f)
		bytes, ops := f.Meter().Snapshot()
		meters[name] = bytes
		for kind, n := range ops {
			if n <= 0 {
				t.Fatalf("%s fabric: kind %s has %d ops", name, kind, n)
			}
		}
	}
	if !reflect.DeepEqual(meters["ref"], meters["sim"]) {
		t.Fatalf("meters diverged: %v vs %v", meters["ref"], meters["sim"])
	}
}
