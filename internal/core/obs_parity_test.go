package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
)

// The telemetry bit-exactness contract (ISSUE 7): training results are
// identical with observability off, on, or on with tracing armed —
// metrics and traces read the trajectory, they never steer it. Every
// strategy family runs three times under the three modes and the
// Results must be deeply equal, float64 bit for float64 bit.

// runWithObs executes one run in the requested telemetry mode,
// restoring the process-global switches afterwards (the obs layer is
// process-wide state, so this test must not run in parallel).
func runWithObs(t *testing.T, cfg Config, strat Strategy, enable bool, traceFile string) Result {
	t.Helper()
	if enable {
		obs.Enable()
		defer obs.Disable()
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.TraceTo(f); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := obs.StopTrace(); err != nil {
				t.Fatal(err)
			}
		}()
	}
	return MustRun(cfg, strat)
}

func TestObsParityAllStrategies(t *testing.T) {
	base := testConfig(23)
	base.MaxSteps = 30
	base.EvalEvery = 10
	dir := t.TempDir()

	for name, mk := range parityStrategies(base) {
		t.Run(name, func(t *testing.T) {
			off := runWithObs(t, base, mk(), false, "")
			on := runWithObs(t, base, mk(), true, "")
			if !reflect.DeepEqual(off, on) {
				t.Fatalf("metrics-enabled run diverged from disabled:\noff: %v\non:  %v", off, on)
			}
			traced := runWithObs(t, base, mk(), true, filepath.Join(dir, name+".json"))
			if !reflect.DeepEqual(off, traced) {
				t.Fatalf("traced run diverged from disabled:\noff:    %v\ntraced: %v", off, traced)
			}
		})
	}
}

// TestObsParityVirtualClock pins the mode that exercises the fabric
// span path hardest: a SimFabric run, whose virtual clock lands in the
// Result, must be bit-identical with tracing armed.
func TestObsParityVirtualClock(t *testing.T) {
	mkCfg := func() Config {
		cfg := testConfig(31)
		cfg.MaxSteps = 30
		cfg.EvalEvery = 10
		cfg.Fabric = comm.NewSimFabric(cfg.K, comm.DefaultCostModel(), comm.ScenarioStraggler)
		return cfg
	}
	off := runWithObs(t, mkCfg(), NewLinearFDA(0.1), false, "")
	traced := runWithObs(t, mkCfg(), NewLinearFDA(0.1), true, filepath.Join(t.TempDir(), "sim.json"))
	if !reflect.DeepEqual(off, traced) {
		t.Fatalf("traced SimFabric run diverged:\noff:    %v\ntraced: %v", off, traced)
	}
	if off.VirtualSec == 0 {
		t.Fatal("SimFabric run reported no virtual time")
	}
}
