package comm

// Fabric is the pluggable communication backend a training cluster runs
// on. The training loop is written once against this interface and must
// behave bit-identically on every implementation: a fabric moves vectors
// and accounts costs, it never changes arithmetic. Three backends exist:
//
//   - Cluster: the in-process reference (sequential mean or goroutine
//     ring), the default and the specification of the collective
//     semantics;
//   - SimFabric: the reference math plus a deterministic virtual clock
//     driven by per-link bandwidth/latency profiles and straggler
//     injection, so runs report estimated wall-clock time-to-accuracy;
//   - TCPFabric: a real socket backend speaking the length-prefixed,
//     CRC-checked frame protocol of wire.go through a coordinator, used
//     by multi-process distributed training (`fdarun -worker`).
//
// Determinism contract (DESIGN.md §9): every reduction is computed from
// the K contributions in global rank order with the same kernels
// (tensor.Mean and friends) on every backend. Distributed backends
// achieve this by exchanging raw payloads — every process ends up
// holding all K contributions and computes the reduction locally,
// exactly as the in-process reference does. Only cost and time
// accounting may differ between backends; a CostReport's charged bytes
// may not.
//
// A fabric is driven by one training goroutine per process; collectives
// are blocking and must be issued in the same order by every process of
// a distributed cluster (the replicated training loop guarantees this).
type Fabric interface {
	// K is the global cluster size.
	K() int
	// Ranks lists the global worker ranks driven by this process, in
	// ascending order. The in-process fabrics own all of 0..K-1; a
	// TCPFabric owns exactly one.
	Ranks() []int
	// AllReduce averages the K equal-length vectors in place — local
	// contributions are given in Ranks() order — and charges the
	// operation to the meter under kind.
	AllReduce(kind string, local [][]float64) CostReport
	// AllReduceMean averages the contributions into dst without
	// modifying them, charging like AllReduce.
	AllReduceMean(kind string, dst []float64, local [][]float64) CostReport
	// Broadcast overwrites every worker's vector with global rank root's,
	// charging kind for root's upload to each peer ((K−1)·payload
	// total).
	Broadcast(kind string, root int, local [][]float64) CostReport
	// Gather returns all K workers' vectors in global rank order,
	// uncharged (measurement and evaluation only — the deployed
	// algorithm never calls it). The returned slices are valid until the
	// next fabric operation; in-process fabrics return the contributions
	// themselves.
	Gather(local [][]float64) [][]float64
	// ExchangeBytes moves one opaque payload per local rank and returns
	// all K payloads in global rank order; a local rank's entry is the
	// caller's own payload. The socket fabric frames the others for real;
	// in-process fabrics hand the contributions back directly. Uncharged
	// — callers account wire costs under their own model. No strategy
	// calls it: it stays for benchmark/wrap.go, which forwards it.
	ExchangeBytes(kind string, local [][]byte) [][]byte
	// Meter returns the fabric's cost meter.
	Meter() *Meter
	// Cost returns the fabric's byte-accounting model.
	Cost() CostModel
	// Close releases fabric resources (network connections); in-process
	// fabrics are no-ops. The fabric is unusable afterwards.
	Close() error
}

// CostReport is the accounting of one collective operation. Charged
// bytes follow the fabric's CostModel and are identical across backends
// for the same operation sequence; WireBytes and Seconds are
// backend-specific observations.
type CostReport struct {
	// Elements is the reduced vector length.
	Elements int
	// PerWorker is the charged bytes one worker transmits for the op.
	PerWorker int64
	// Bytes is the charged cluster-total wire bytes (what the meter
	// accumulated).
	Bytes int64
	// WireBytes is the actual framed bytes this process moved on a
	// socket fabric (0 in-process). Diagnostic only; never charged.
	WireBytes int64
	// Seconds is the operation's duration: virtual on SimFabric,
	// measured on TCPFabric, 0 on the in-process reference.
	Seconds float64
}

// VirtualClocker is implemented by fabrics that model time (SimFabric).
// VirtualTime returns the deterministic virtual seconds elapsed since
// the fabric was built.
type VirtualClocker interface {
	VirtualTime() float64
	// SetVirtualTime rewinds or advances the clock (checkpoint restore).
	SetVirtualTime(sec float64)
}

// StepTimer is implemented by fabrics that charge per-step computation
// time to their clock; the session calls StepDone once per completed
// global step t (1-based).
type StepTimer interface {
	StepDone(t int)
}

// TransferTimer is implemented by fabrics whose clock should advance
// for custom-charged transfers — asynchronous FDA's coordinator-led
// synchronizations bypass the collective cost model and charge the
// meter directly, so they report their per-worker wire bytes here.
// Returns the modeled seconds.
type TransferTimer interface {
	TransferDone(perWorkerBytes int64) float64
}

// allRanks returns 0..k-1 (the Ranks of an in-process fabric).
func allRanks(k int) []int {
	r := make([]int, k)
	for i := range r {
		r[i] = i
	}
	return r
}
