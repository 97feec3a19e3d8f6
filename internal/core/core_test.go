package core

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// testWorkload returns a small normalized synthetic task and an MLP
// builder sized for fast tests (d ≈ 2.4k).
func testWorkload(seed uint64) (train, test *data.Dataset, model ModelBuilder) {
	train, test = data.MNISTLike(seed)
	nz := data.FitNormalizer(train)
	nz.Apply(train)
	nz.Apply(test)
	dim := train.Dim()
	model = func(rng *tensor.RNG) *nn.Network {
		return nn.New(rng,
			nn.NewDense(dim, 32, nn.GlorotUniformInit),
			nn.NewReLU(32),
			nn.NewDense(32, 10, nn.GlorotUniformInit),
		)
	}
	return train, test, model
}

func testConfig(seed uint64) Config {
	train, test, model := testWorkload(seed)
	return Config{
		K: 5, BatchSize: 32, Seed: seed,
		Model: model, Optimizer: opt.NewAdam(1e-3),
		Train: train, Test: test,
		MaxSteps: 150, EvalEvery: 25,
	}
}

func TestRunValidatesConfig(t *testing.T) {
	_, err := Run(Config{}, NewSynchronous())
	if err == nil {
		t.Fatal("expected config error")
	}
}

func TestSynchronousSyncsEveryStep(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxSteps = 40
	res := MustRun(cfg, NewSynchronous())
	if res.SyncCount != 40 {
		t.Fatalf("Synchronous synced %d times in 40 steps", res.SyncCount)
	}
	if res.StateBytes != 0 {
		t.Fatalf("Synchronous charged %d state bytes", res.StateBytes)
	}
	if res.ModelBytes == 0 {
		t.Fatal("Synchronous charged no model bytes")
	}
}

func TestLocalSGDSyncCadence(t *testing.T) {
	cfg := testConfig(2)
	cfg.MaxSteps = 60
	res := MustRun(cfg, NewLocalSGD(10))
	if res.SyncCount != 6 {
		t.Fatalf("LocalSGD(10) synced %d times in 60 steps", res.SyncCount)
	}
}

func TestFedOptRoundCadence(t *testing.T) {
	cfg := testConfig(3)
	cfg.MaxSteps = 45
	f := NewFedAvgMFor(cfg)
	// shard = 2400/5 = 480; 480/32 = 15 steps per epoch.
	if f.roundSteps != 15 {
		t.Fatalf("round steps = %d want 15", f.roundSteps)
	}
	res := MustRun(cfg, f)
	if res.SyncCount != 3 {
		t.Fatalf("FedAvgM synced %d times in 45 steps", res.SyncCount)
	}
}

func TestVarianceIdentityDuringTraining(t *testing.T) {
	// Eq. (4): Var(w) computed via drifts must equal the direct definition
	// throughout a real training trajectory.
	cfg := testConfig(4)
	cfg.MaxSteps = 30
	probe := &identityProbe{t: t}
	MustRun(cfg, probe)
	if probe.checks == 0 {
		t.Fatal("probe never ran")
	}
}

// exactVariance returns Var(w_t) computed directly from Eq. (2), the
// ground truth the FDA estimators bound. Only tests need it; they hold
// Env.ExactVarianceViaDrift, OracleFDA's H, to it.
func exactVariance(e *Env) float64 {
	all := e.Fabric.Gather(e.paramViews)
	mean := make([]float64, e.D)
	tensor.Mean(mean, all...)
	var s float64
	diff := make([]float64, e.D)
	for _, p := range all {
		s += tensor.SubThenSquaredNorm(diff, p, mean)
	}
	return s / float64(e.Fabric.K())
}

type identityProbe struct {
	t      *testing.T
	checks int
}

func (p *identityProbe) Name() string { return "identity-probe" }
func (p *identityProbe) Init(_ *Env)  {}
func (p *identityProbe) AfterLocalStep(env *Env, step int) {
	direct := exactVariance(env)
	viaDrift := env.ExactVarianceViaDrift()
	if math.Abs(direct-viaDrift) > 1e-9*(1+direct) {
		p.t.Fatalf("step %d: Var direct %v != via-drift %v", step, direct, viaDrift)
	}
	p.checks++
	if step%10 == 0 {
		env.SyncModels()
	}
}

// Both FDA estimators must overestimate the true variance (Thm 3.1 holds
// with probability 1−δ, Thm 3.2 deterministically). We assert the linear
// bound always and allow rare sketch failures.
func TestEstimatorsOverestimateVariance(t *testing.T) {
	cfg := testConfig(5)
	cfg.MaxSteps = 60
	probe := &boundProbe{}
	MustRun(cfg, probe)
	if probe.checks < 50 {
		t.Fatalf("only %d checks ran", probe.checks)
	}
	if probe.linearViolations > 0 {
		t.Fatalf("LinearFDA bound violated %d/%d times (must never happen)",
			probe.linearViolations, probe.checks)
	}
	if float64(probe.sketchViolations) > 0.1*float64(probe.checks) {
		t.Fatalf("SketchFDA bound violated %d/%d times (should be ≤ δ≈5%%)",
			probe.sketchViolations, probe.checks)
	}
}

type boundProbe struct {
	sk               *SketchFDA
	lin              *LinearFDA
	checks           int
	linearViolations int
	sketchViolations int
}

func (p *boundProbe) Name() string { return "bound-probe" }
func (p *boundProbe) Init(env *Env) {
	p.sk = NewSketchFDA(math.Inf(1)) // never sync via the variant itself
	p.lin = NewLinearFDA(math.Inf(1))
	p.sk.Init(env)
	p.lin.Init(env)
}

func (p *boundProbe) AfterLocalStep(env *Env, step int) {
	truth := env.ExactVarianceViaDrift()
	// Evaluate both estimators' H on the current drifts.
	for i, w := range env.Workers {
		u := w.Drift(env.W0)
		p.sk.states[i][0] = tensor.SquaredNorm(u)
		p.sk.sk.SketchVec(p.sk.workerSk[i], u)
		p.lin.states[i][0] = p.sk.states[i][0]
		p.lin.states[i][1] = tensor.Dot(p.lin.xi, u)
	}
	tensor.Mean(p.sk.meanSt, p.sk.states...)
	tensor.Mean(p.lin.meanSt, p.lin.states...)
	hSketch := p.sk.estimate()
	hLinear := p.lin.meanSt[0] - p.lin.meanSt[1]*p.lin.meanSt[1]

	p.checks++
	if hLinear < truth-1e-9*(1+truth) {
		p.linearViolations++
	}
	if hSketch < truth-1e-9*(1+truth) {
		p.sketchViolations++
	}
	if step%15 == 0 {
		env.SyncModels()
	}
}

func TestFDASyncsLessThanSynchronous(t *testing.T) {
	for _, mk := range []func() Strategy{
		func() Strategy { return NewSketchFDA(0.1) },
		func() Strategy { return NewLinearFDA(0.1) },
		func() Strategy { return NewOracleFDA(0.1) },
	} {
		cfg := testConfig(6)
		cfg.MaxSteps = 80
		res := MustRun(cfg, mk())
		if res.SyncCount >= 80 {
			t.Fatalf("%s synced every step", res.Strategy)
		}
		if res.SyncCount == 0 {
			t.Fatalf("%s never synced with a moderate Θ", res.Strategy)
		}
	}
}

func TestThetaMonotonicity(t *testing.T) {
	// Higher Θ ⇒ at most as many synchronizations.
	syncs := func(theta float64) int {
		cfg := testConfig(7)
		cfg.MaxSteps = 80
		return MustRun(cfg, NewLinearFDA(theta)).SyncCount
	}
	low, high := syncs(0.05), syncs(0.5)
	if high > low {
		t.Fatalf("Θ=0.5 synced %d > Θ=0.05 synced %d", high, low)
	}
	if low == 0 {
		t.Fatal("Θ=0.05 never synced; test not meaningful")
	}
}

func TestSketchSyncsAtMostLinear(t *testing.T) {
	// SketchFDA's tighter estimator should trigger no more syncs than
	// LinearFDA at the same Θ (allowing tiny slack for sketch noise).
	cfg := testConfig(8)
	cfg.MaxSteps = 100
	lin := MustRun(cfg, NewLinearFDA(0.12)).SyncCount
	sk := MustRun(cfg, NewSketchFDA(0.12)).SyncCount
	if sk > lin+1 {
		t.Fatalf("SketchFDA %d syncs > LinearFDA %d", sk, lin)
	}
}

func TestFDACommFarBelowSynchronous(t *testing.T) {
	// The headline claim at small scale: same accuracy target, orders of
	// magnitude less communication.
	target := 0.9
	mk := func() Config {
		cfg := testConfig(9)
		cfg.MaxSteps = 400
		cfg.TargetAccuracy = target
		return cfg
	}
	syncRes := MustRun(mk(), NewSynchronous())
	fdaRes := MustRun(mk(), NewLinearFDA(0.1))
	if !syncRes.ReachedTarget || !fdaRes.ReachedTarget {
		t.Fatalf("targets not reached: sync=%v fda=%v", syncRes, fdaRes)
	}
	if fdaRes.CommBytes*5 > syncRes.CommBytes {
		t.Fatalf("FDA comm %d not ≪ Synchronous comm %d", fdaRes.CommBytes, syncRes.CommBytes)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := testConfig(10)
	cfg.MaxSteps = 60
	a := MustRun(cfg, NewLinearFDA(0.1))
	b := MustRun(cfg, NewLinearFDA(0.1))
	if a.SyncCount != b.SyncCount || a.CommBytes != b.CommBytes ||
		a.FinalTestAcc != b.FinalTestAcc || a.Steps != b.Steps {
		t.Fatalf("identical configs diverged:\n%v\n%v", a, b)
	}
}

func TestSeedsProduceDifferentRuns(t *testing.T) {
	a := MustRun(testConfig(11), NewLinearFDA(0.1))
	cfg := testConfig(11)
	cfg.Seed = 12
	b := MustRun(cfg, NewLinearFDA(0.1))
	if a.FinalTestAcc == b.FinalTestAcc && a.SyncCount == b.SyncCount && a.CommBytes == b.CommBytes {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestTargetAccuracyStopsRun(t *testing.T) {
	cfg := testConfig(13)
	cfg.TargetAccuracy = 0.5 // trivially reachable
	cfg.MaxSteps = 400
	res := MustRun(cfg, NewSynchronous())
	if !res.ReachedTarget {
		t.Fatal("target never reached")
	}
	if res.Steps == 400 {
		t.Fatal("run did not stop early")
	}
	if res.FinalTestAcc < 0.5 {
		t.Fatalf("stopped below target: %v", res.FinalTestAcc)
	}
}

func TestHistoryRecorded(t *testing.T) {
	cfg := testConfig(14)
	cfg.MaxSteps = 50
	cfg.EvalEvery = 10
	cfg.RecordTrainAccuracy = true
	res := MustRun(cfg, NewLinearFDA(0.1))
	if len(res.History) != 5 {
		t.Fatalf("history has %d points want 5", len(res.History))
	}
	for i, p := range res.History {
		if p.Step != (i+1)*10 {
			t.Fatalf("history step %d = %d", i, p.Step)
		}
		if p.TrainAcc == 0 {
			t.Fatalf("train accuracy not recorded at point %d", i)
		}
		if i > 0 && p.CommBytes < res.History[i-1].CommBytes {
			t.Fatal("comm bytes decreased over time")
		}
	}
}

func TestHeterogeneousRunsComplete(t *testing.T) {
	for _, het := range []data.Heterogeneity{
		data.IID(), data.NonIIDPercent(60), data.NonIIDLabel(0),
	} {
		cfg := testConfig(15)
		cfg.Het = het
		cfg.MaxSteps = 60
		res := MustRun(cfg, NewLinearFDA(0.1))
		if res.Steps != 60 {
			t.Fatalf("%s run stopped early", het)
		}
		if res.FinalTestAcc < 0.3 {
			t.Fatalf("%s accuracy %v suspiciously low", het, res.FinalTestAcc)
		}
	}
}

func TestStateTrafficTinyVersusModelTraffic(t *testing.T) {
	// LinearFDA's per-step state is 2 scalars; even over many steps it
	// must stay far below one model synchronization.
	cfg := testConfig(16)
	cfg.MaxSteps = 100
	res := MustRun(cfg, NewLinearFDA(0.1))
	d := int64(2410)
	oneModelSync := comm.DefaultCostModel().TotalBytes(int(d), cfg.K)
	if res.StateBytes > oneModelSync {
		t.Fatalf("100 steps of linear state (%d B) exceeded one model sync (%d B)",
			res.StateBytes, oneModelSync)
	}
}

func TestOracleNeverSyncsMoreThanVariants(t *testing.T) {
	cfg := testConfig(17)
	cfg.MaxSteps = 100
	theta := 0.12
	oracle := MustRun(cfg, NewOracleFDA(theta)).SyncCount
	lin := MustRun(cfg, NewLinearFDA(theta)).SyncCount
	sk := MustRun(cfg, NewSketchFDA(theta)).SyncCount
	if oracle > lin || oracle > sk+1 {
		t.Fatalf("oracle %d syncs vs linear %d sketch %d", oracle, lin, sk)
	}
}

func TestFedOptTrainsAndSpacesComm(t *testing.T) {
	cfg := testConfig(19)
	cfg.Optimizer = opt.NewAdam(1e-3)
	cfg.MaxSteps = 150
	res := MustRun(cfg, NewFedAdamFor(cfg))
	if res.SyncCount != 10 {
		t.Fatalf("FedAdam rounds = %d want 10 (150 steps / 15-step epochs)", res.SyncCount)
	}
	if res.FinalTestAcc < 0.5 {
		t.Fatalf("FedAdam accuracy %v", res.FinalTestAcc)
	}
}

func TestResultStringAndCommGB(t *testing.T) {
	r := Result{Strategy: "X", CommBytes: 2_500_000_000}
	if r.CommGB() != 2.5 {
		t.Fatalf("CommGB = %v", r.CommGB())
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

// After any model synchronization the variance must be exactly zero and
// every worker must hold the identical model — the protocol's reset
// invariant, checked along a live trajectory for every strategy family.
func TestSyncResetsVarianceInvariant(t *testing.T) {
	for _, mk := range []func(cfg Config) Strategy{
		func(Config) Strategy { return NewLinearFDA(0.05) },
		func(Config) Strategy { return NewSketchFDA(0.05) },
		func(Config) Strategy { return NewLocalSGD(7) },
		func(cfg Config) Strategy { return NewFedAvgMFor(cfg) },
	} {
		cfg := testConfig(50)
		cfg.MaxSteps = 40
		inner := mk(cfg)
		probe := &resetProbe{t: t, inner: inner}
		MustRun(cfg, probe)
		if probe.syncsSeen == 0 {
			t.Fatalf("%s: no synchronization observed in 40 steps", inner.Name())
		}
	}
}

type resetProbe struct {
	t         *testing.T
	inner     Strategy
	syncsSeen int
}

func (p *resetProbe) Name() string  { return "reset-probe(" + p.inner.Name() + ")" }
func (p *resetProbe) Init(env *Env) { p.inner.Init(env) }
func (p *resetProbe) AfterLocalStep(env *Env, step int) {
	before := env.SyncCount
	p.inner.AfterLocalStep(env, step)
	if env.SyncCount == before {
		return
	}
	p.syncsSeen++
	if v := exactVariance(env); v > 1e-18 {
		p.t.Fatalf("%s: variance %v after synchronization", p.inner.Name(), v)
	}
	ref := env.Workers[0].Net.Params()
	for _, w := range env.Workers[1:] {
		params := w.Net.Params()
		for i := range ref {
			if params[i] != ref[i] {
				p.t.Fatalf("%s: workers differ after synchronization", p.inner.Name())
			}
		}
	}
}
