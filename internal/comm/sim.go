package comm

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// LinkProfile models one worker's attachment to the network plus its
// relative compute speed. Zero-valued fields take the scenario defaults
// (see Scenario.link).
type LinkProfile struct {
	// BandwidthBps is the link's usable bandwidth in bits per second.
	BandwidthBps float64
	// LatencySec is the fixed per-collective overhead on this link.
	LatencySec float64
	// ComputeMult scales the scenario's per-step compute time for this
	// worker (1 = nominal, 2 = half speed). Zero means 1.
	ComputeMult float64
}

// Scenario describes a heterogeneous deployment for the simulated
// fabric: who is attached how, how long a local step takes, and an
// optional deterministic straggler schedule. Scenarios are pure data —
// two SimFabrics built from equal scenarios tick identically.
type Scenario struct {
	// Name identifies the scenario in experiment records and specs.
	Name string
	// Links are the per-rank profiles; rank r uses Links[r % len(Links)],
	// so a single entry describes a homogeneous cluster. Empty means one
	// Balanced-profile link for everyone.
	Links []LinkProfile
	// ComputeSecPerStep is the nominal local-step compute time.
	ComputeSecPerStep float64
	// StragglerEvery injects a deterministic straggler: every such steps
	// (t % StragglerEvery == 0), rank StragglerRank's compute time is
	// multiplied by StragglerFactor. Zero disables injection.
	StragglerEvery  int
	StragglerRank   int
	StragglerFactor float64
}

// link returns rank r's effective profile with defaults applied.
func (s Scenario) link(r int) LinkProfile {
	p := LinkProfile{BandwidthBps: ProfileBalanced.BandwidthBps, LatencySec: ProfileBalanced.LatencySec}
	if len(s.Links) > 0 {
		p = s.Links[r%len(s.Links)]
	}
	if p.BandwidthBps <= 0 {
		p.BandwidthBps = ProfileBalanced.BandwidthBps
	}
	if p.LatencySec < 0 {
		p.LatencySec = 0
	}
	if p.ComputeMult <= 0 {
		p.ComputeMult = 1
	}
	return p
}

// Canned scenarios for the network sweeps (experiments' netsweep grid
// and the fda facade). Compute times are nominal per-step costs at the
// reproduction's model scale.
var (
	// ScenarioLAN is a homogeneous datacenter cluster: fast uniform
	// links, no stragglers.
	ScenarioLAN = Scenario{
		Name:              "lan",
		Links:             []LinkProfile{{BandwidthBps: 10e9, LatencySec: 1e-3}},
		ComputeSecPerStep: 0.05,
	}
	// ScenarioFedWAN is a federated deployment: half the cohort on slow
	// high-latency home links, half on fiber.
	ScenarioFedWAN = Scenario{
		Name: "fedwan",
		Links: []LinkProfile{
			{BandwidthBps: 100e6, LatencySec: 40e-3, ComputeMult: 1.5},
			{BandwidthBps: 1e9, LatencySec: 10e-3},
		},
		ComputeSecPerStep: 0.05,
	}
	// ScenarioStraggler is a LAN cluster where one worker periodically
	// stalls (GC pause, shared tenancy) to 8× its nominal step time.
	ScenarioStraggler = Scenario{
		Name:              "straggler",
		Links:             []LinkProfile{{BandwidthBps: 10e9, LatencySec: 1e-3}},
		ComputeSecPerStep: 0.05,
		StragglerEvery:    5,
		StragglerRank:     0,
		StragglerFactor:   8,
	}
)

// Scenarios returns the canned scenarios keyed by name.
func Scenarios() map[string]Scenario {
	return map[string]Scenario{
		ScenarioLAN.Name:       ScenarioLAN,
		ScenarioFedWAN.Name:    ScenarioFedWAN,
		ScenarioStraggler.Name: ScenarioStraggler,
	}
}

// ScenarioByName fetches a canned scenario.
func ScenarioByName(name string) (Scenario, error) {
	if s, ok := Scenarios()[name]; ok {
		return s, nil
	}
	names := slices.Sorted(maps.Keys(Scenarios()))
	return Scenario{}, fmt.Errorf("comm: unknown network scenario %q (have %v)", name, names)
}

// SpeedsScenario describes a cluster whose workers differ only in speed:
// rank r runs at rate speeds[r % len(speeds)] (1 = nominal), so its local
// step takes 1/rate virtual seconds, and communication takes no time (zero
// latency, unbounded bandwidth). The virtual clock then counts nominal
// step-times.
func SpeedsScenario(speeds []float64) (Scenario, error) {
	if len(speeds) == 0 {
		return Scenario{}, fmt.Errorf("comm: no worker speeds")
	}
	links := make([]LinkProfile, len(speeds))
	for r, v := range speeds {
		if !(v > 0) || math.IsInf(v, 1) {
			return Scenario{}, fmt.Errorf("comm: worker %d speed %v, want a positive finite rate", r, v)
		}
		links[r] = LinkProfile{BandwidthBps: math.Inf(1), ComputeMult: 1 / v}
	}
	return Scenario{Name: "speeds", Links: links, ComputeSecPerStep: 1}, nil
}

// SimFabric is the simulated-network backend: the in-process reference
// math (it embeds a Cluster, so reductions and charged bytes are
// bit-identical to it) plus a deterministic virtual clock. Collectives
// advance the clock by the slowest link's transfer time — a synchronous
// collective is gated by its worst participant — and StepDone advances
// it by the slowest worker's compute time, with the scenario's
// deterministic straggler schedule applied. An asynchronous FDA session
// instead sets the clock to each worker's state arriving at the
// coordinator, scheduled from RankStepSec and RankSendSec, and times its
// synchronizations with TransferDone. The clock is a pure function of
// the (scenario, operation sequence) pair; training math is untouched.
type SimFabric struct {
	*Cluster
	scen  Scenario
	clock float64
	// linkTime[r] caches rank r's per-byte seconds and latency.
	perByteSec []float64
	latency    []float64
	compute    []float64
}

// NewSimFabric builds a simulated fabric over k workers charging under
// cm and ticking under scen.
func NewSimFabric(k int, cm CostModel, scen Scenario) *SimFabric {
	f := &SimFabric{
		Cluster:    NewClusterWithCost(k, cm),
		scen:       scen,
		perByteSec: make([]float64, k),
		latency:    make([]float64, k),
		compute:    make([]float64, k),
	}
	for r := 0; r < k; r++ {
		p := scen.link(r)
		f.perByteSec[r] = 8 / p.BandwidthBps
		f.latency[r] = p.LatencySec
		f.compute[r] = scen.ComputeSecPerStep * p.ComputeMult
	}
	return f
}

// VirtualTime implements VirtualClocker.
func (f *SimFabric) VirtualTime() float64 { return f.clock }

// SetVirtualTime implements VirtualClocker (checkpoint restore).
func (f *SimFabric) SetVirtualTime(sec float64) { f.clock = sec }

// RankStepSec returns how long rank r computes its local step t
// (1-based): the scenario's ComputeSecPerStep·ComputeMult, times
// StragglerFactor on the straggler schedule's steps. Asynchronous FDA
// schedules each worker's next completion with it.
func (f *SimFabric) RankStepSec(r, t int) float64 {
	c := f.compute[r]
	if f.scen.StragglerEvery > 0 && t%f.scen.StragglerEvery == 0 && r == f.scen.StragglerRank {
		c *= f.scen.StragglerFactor
	}
	return c
}

// RankSendSec returns how long rank r's link takes to send bytes one
// way: its latency plus the bytes at its bandwidth. Asynchronous FDA
// times each worker's state upload with it.
func (f *SimFabric) RankSendSec(r int, bytes int64) float64 {
	return f.latency[r] + float64(bytes)*f.perByteSec[r]
}

// StepDone implements StepTimer: one lock-step global step completed;
// the cluster waits for its slowest worker.
func (f *SimFabric) StepDone(t int) {
	var worst float64
	for r := range f.compute {
		if c := f.RankStepSec(r, t); c > worst {
			worst = c
		}
	}
	f.clock += worst
}

// TransferDone implements TransferTimer: a custom-charged transfer
// (compressed synchronization) moving perWorker bytes on every link.
func (f *SimFabric) TransferDone(perWorker int64) float64 {
	s := f.collectiveSeconds(perWorker)
	f.clock += s
	return s
}

// collectiveSeconds models one collective moving perWorker bytes on
// every link: the barrier completes when the slowest link does.
func (f *SimFabric) collectiveSeconds(perWorker int64) float64 {
	var worst float64
	for r := range f.perByteSec {
		t := f.latency[r] + float64(perWorker)*f.perByteSec[r]
		if t > worst {
			worst = t
		}
	}
	return worst
}

// tick advances the clock for a charged collective and stamps the
// report.
func (f *SimFabric) tick(rep CostReport) CostReport {
	rep.Seconds = f.collectiveSeconds(rep.PerWorker)
	f.clock += rep.Seconds
	return rep
}

// AllReduce implements Fabric: reference math, then clock advance. The
// span wraps the span-free reference body so one traced event carries
// the op's charged bytes and simulated seconds.
func (f *SimFabric) AllReduce(kind string, vecs [][]float64) CostReport {
	sp := startOp("AllReduce")
	rep := f.tick(f.Cluster.allReduce(kind, vecs))
	endOp(sp, kind, rep)
	return rep
}

// AllReduceMean implements Fabric.
func (f *SimFabric) AllReduceMean(kind string, dst []float64, vecs [][]float64) CostReport {
	sp := startOp("AllReduceMean")
	rep := f.tick(f.Cluster.allReduceMean(kind, dst, vecs))
	endOp(sp, kind, rep)
	return rep
}

// Broadcast implements Fabric.
func (f *SimFabric) Broadcast(kind string, root int, vecs [][]float64) CostReport {
	sp := startOp("Broadcast")
	rep := f.tick(f.Cluster.broadcast(kind, root, vecs))
	endOp(sp, kind, rep)
	return rep
}
