package core

import (
	"math"
	"testing"
)

func TestIncreasingTauSchedule(t *testing.T) {
	s := NewIncreasingTauLocalSGD(4, 2)
	wants := []int{4, 4, 8, 8, 16}
	for r, want := range wants {
		if got := s.Schedule(r); got != want {
			t.Fatalf("τ_%d = %d want %d", r, got, want)
		}
	}
}

func TestDecreasingTauSchedule(t *testing.T) {
	s := NewDecreasingTauLocalSGD(8, 1)
	wants := []int{8, 4, 2, 1, 1, 1}
	for r, want := range wants {
		if got := s.Schedule(r); got != want {
			t.Fatalf("τ_%d = %d want %d", r, got, want)
		}
	}
}

func TestVaryingTauSyncCadence(t *testing.T) {
	cfg := testConfig(30)
	cfg.MaxSteps = 30
	// Increasing: syncs at steps 4, 8, 16, 32... → 3 syncs in 30 steps
	// with base 4, doubling every round.
	res := MustRun(cfg, NewIncreasingTauLocalSGD(4, 1))
	if res.SyncCount != 3 {
		t.Fatalf("increasing-τ synced %d times, want 3", res.SyncCount)
	}
	// Decreasing from 8 halving per round: syncs at 8, 12, 14, 15, 16, …
	res = MustRun(cfg, NewDecreasingTauLocalSGD(8, 1))
	if res.SyncCount < 10 {
		t.Fatalf("decreasing-τ synced only %d times", res.SyncCount)
	}
}

func TestPostLocalSGDPhases(t *testing.T) {
	cfg := testConfig(31)
	cfg.MaxSteps = 40
	res := MustRun(cfg, NewPostLocalSGD(20, 10))
	// Phase 1: 20 syncs (every step); phase 2: steps 30 and 40 → 22 total.
	if res.SyncCount != 22 {
		t.Fatalf("PostLocalSGD synced %d times, want 22", res.SyncCount)
	}
}

func TestLAGSkipsRounds(t *testing.T) {
	cfg := testConfig(32)
	cfg.MaxSteps = 100
	lag := MustRun(cfg, NewLAG(10, 0.5))
	fixed := MustRun(cfg, NewLocalSGD(10))
	if lag.SyncCount >= fixed.SyncCount {
		t.Fatalf("LAG synced %d ≥ fixed schedule %d — never lazy", lag.SyncCount, fixed.SyncCount)
	}
	if lag.SyncCount == 0 {
		t.Fatal("LAG never synced")
	}
}

func TestRelatedWorkValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewIncreasingTauLocalSGD(0, 1) },
		func() { NewDecreasingTauLocalSGD(4, 0) },
		func() { NewPostLocalSGD(-1, 5) },
		func() { NewPostLocalSGD(5, 0) },
		func() { NewLAG(0, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAdaptiveThetaTracksBudget(t *testing.T) {
	cfg := testConfig(33)
	cfg.MaxSteps = 400
	d := 2410.0

	// A tight budget forces Θ up (fewer syncs); a loose one lets Θ drop.
	run := func(budget float64) (Result, []float64) {
		a := NewAdaptiveTheta(NewLinearFDA(0.1), budget)
		a.Window = 20
		res := MustRun(cfg, a)
		return res, a.thetaTrace
	}

	// One model sync ≈ K · 2(K−1)/K · d · 4 bytes = 2(K−1)·d·4 ≈ 77 kB.
	syncBytes := 2 * 4 * d * 4
	tight, tightTrace := run(syncBytes / 100) // ~1 sync per 100 steps
	loose, looseTrace := run(syncBytes * 1)   // ~1 sync per step allowed

	if tight.SyncCount >= loose.SyncCount {
		t.Fatalf("tight budget synced %d ≥ loose %d", tight.SyncCount, loose.SyncCount)
	}
	if len(tightTrace) == 0 || len(looseTrace) == 0 {
		t.Fatal("controller never adjusted")
	}
	// Under the tight budget Θ should end above its start; under the
	// loose budget at or below.
	if tightTrace[len(tightTrace)-1] <= 0.1 {
		t.Fatalf("tight budget did not raise Θ: trace %v", tightTrace)
	}
	if looseTrace[len(looseTrace)-1] > 0.1+1e-9 {
		t.Fatalf("loose budget raised Θ: trace %v", looseTrace)
	}
}

func TestAdaptiveThetaClamps(t *testing.T) {
	cfg := testConfig(34)
	cfg.MaxSteps = 300
	a := NewAdaptiveTheta(NewSketchFDA(0.1), 1) // impossible 1 B/step budget
	a.Window = 10
	MustRun(cfg, a)
	for _, th := range a.thetaTrace {
		if th > 0.1*64+1e-9 || math.IsInf(th, 0) {
			t.Fatalf("Θ escaped clamp: %v", th)
		}
	}
}

func TestAdaptiveThetaRejectsUnknownInner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdaptiveTheta(NewSynchronous(), 100)
}

func TestAdaptiveThetaName(t *testing.T) {
	a := NewAdaptiveTheta(NewLinearFDA(0.1), 100)
	if a.Name() != "AdaptiveLinearFDA" {
		t.Fatalf("name %q", a.Name())
	}
}
