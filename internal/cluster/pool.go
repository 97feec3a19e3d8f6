package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// Clock is the pool's time source: monotonic nanoseconds from an
// arbitrary epoch. It is injected (cmd/fdagate passes the wall clock,
// tests pass a virtual one) so the package itself stays off the
// ambient clock — only the quarantine/backoff windows and load
// staleness consume it, never a routing hash.
type Clock func() int64

// Quarantine backoff defaults: first failure parks a replica for
// defaultQuarantineBase, each consecutive failure doubles the window up
// to defaultQuarantineMax.
const (
	defaultQuarantineBase = int64(500e6) // 500ms
	defaultQuarantineMax  = int64(30e9)  // 30s
)

// Replica is one fdaserve process behind the gateway.
type Replica struct {
	// Base is the replica's root URL (no trailing slash). It is the
	// replica's routing identity: the rendezvous hash and the job-id
	// prefix both derive from it, so routing survives gateway restarts
	// and replica-list reordering.
	Base string
	// prefix is the job-id namespace: gateway job ids are
	// "<prefix>-<upstream id>". First 6 hex of SHA-256(Base).
	prefix string

	// dispatched counts gateway requests currently outstanding against
	// this replica — the freshest load signal between polls.
	dispatched atomic.Int64

	// Polled/observed state, guarded by the pool mutex.
	mu               sync.Mutex
	name             string // replica-reported identity (-name), falls back to Base
	healthy          bool
	draining         bool
	fails            int // consecutive transport failures
	quarantinedUntil int64
	overloadedUntil  int64 // 503 Retry-After window
	load             int64 // queued+running jobs at last poll
	inflight         int64 // admission in-flight at last poll
	maxQueue         int64 // admission cap at last poll (0 = unbounded)
	lastErr          string

	// Per-replica gauges (label = base URL), refreshed on every poll
	// and observation.
	gUp, gLoad, gDispatched *obs.Gauge
}

// Name returns the replica-reported identity (its -name flag), or the
// base URL before the first successful poll.
func (r *Replica) Name() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.name == "" {
		return r.Base
	}
	return r.name
}

// View is a replica's externally visible state (the /v1/cluster table).
type View struct {
	Name     string `json:"name"`
	Base     string `json:"base"`
	Prefix   string `json:"prefix"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	// Quarantined reports that the replica is parked behind a failure
	// backoff window and excluded from routing until a probe succeeds.
	Quarantined bool   `json:"quarantined,omitempty"`
	Overloaded  bool   `json:"overloaded,omitempty"`
	Load        int64  `json:"load"`
	InFlight    int64  `json:"in_flight"`
	MaxQueue    int64  `json:"max_queue,omitempty"`
	Dispatched  int64  `json:"dispatched"`
	LastError   string `json:"last_error,omitempty"`
}

// Pool tracks the replica set: health, load, and the deterministic
// affinity ranking.
type Pool struct {
	replicas []*Replica
	byPrefix map[string]*Replica
	client   *http.Client
	now      Clock
	qBase    int64
	qMax     int64
}

// Options configures a pool.
type Options struct {
	// Client executes health polls and probes; it should carry a
	// timeout. Defaults to http.DefaultClient.
	Client *http.Client
	// Now is the monotonic clock (required).
	Now Clock
	// QuarantineBaseNS/QuarantineMaxNS bound the failure backoff
	// windows; zero takes the defaults (500ms, 30s).
	QuarantineBaseNS int64
	QuarantineMaxNS  int64
}

// NewPool builds a pool over the given replica base URLs.
func NewPool(bases []string, opt Options) (*Pool, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("cluster: at least one replica is required")
	}
	if opt.Now == nil {
		return nil, fmt.Errorf("cluster: Options.Now clock is required")
	}
	if opt.Client == nil {
		opt.Client = http.DefaultClient
	}
	if opt.QuarantineBaseNS <= 0 {
		opt.QuarantineBaseNS = defaultQuarantineBase
	}
	if opt.QuarantineMaxNS <= 0 {
		opt.QuarantineMaxNS = defaultQuarantineMax
	}
	p := &Pool{
		client:   opt.Client,
		now:      opt.Now,
		qBase:    opt.QuarantineBaseNS,
		qMax:     opt.QuarantineMaxNS,
		byPrefix: map[string]*Replica{},
	}
	for _, base := range bases {
		base = strings.TrimRight(strings.TrimSpace(base), "/")
		if base == "" {
			continue
		}
		sum := sha256.Sum256([]byte(base))
		prefix := fmt.Sprintf("%x", sum[:3])
		if _, dup := p.byPrefix[prefix]; dup {
			return nil, fmt.Errorf("cluster: replica id prefix collision for %s (duplicate replica URL?)", base)
		}
		r := &Replica{
			Base:    base,
			prefix:  prefix,
			healthy: true, // optimistic: route before the first poll
			gUp: obs.Default.Gauge("fdagate_replica_up",
				"Replica availability: 1 healthy, 0 quarantined or unreachable.", "replica", base),
			gLoad: obs.Default.Gauge("fdagate_replica_load",
				"Queued plus running jobs at the replica's last /v1/metrics poll.", "replica", base),
			gDispatched: obs.Default.Gauge("fdagate_replica_dispatched",
				"Gateway requests currently outstanding against the replica.", "replica", base),
		}
		r.gUp.Set(1)
		p.replicas = append(p.replicas, r)
		p.byPrefix[prefix] = r
	}
	if len(p.replicas) == 0 {
		return nil, fmt.Errorf("cluster: at least one replica is required")
	}
	return p, nil
}

// Replicas returns the replica set in configured order.
func (p *Pool) Replicas() []*Replica {
	out := make([]*Replica, len(p.replicas))
	copy(out, p.replicas)
	return out
}

// SplitID splits a gateway job id "<prefix>-<upstream>" into the owning
// replica and the upstream id. ok is false when the prefix is unknown.
func (p *Pool) SplitID(id string) (r *Replica, upstream string, ok bool) {
	i := strings.IndexByte(id, '-')
	if i <= 0 || i == len(id)-1 {
		return nil, "", false
	}
	r = p.byPrefix[id[:i]]
	if r == nil {
		return nil, "", false
	}
	return r, id[i+1:], true
}

// rendezvousScore ranks (address, replica) pairs: SHA-256 of the pair,
// first 8 bytes as a big-endian integer. Highest score owns the
// address. Pure function — equal inputs rank equally everywhere.
func rendezvousScore(address, base string) uint64 {
	h := sha256.New()
	io.WriteString(h, address)
	io.WriteString(h, "|")
	io.WriteString(h, base)
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0])[:8])
}

// Rank returns the full replica set in rendezvous order for an
// address: the first entry is the affinity owner, later entries are
// the deterministic succession should the owner be unavailable.
// Ranking ignores health entirely — it is the pure affinity function;
// Candidates applies the measured-state filters on top.
func (p *Pool) Rank(address string) []*Replica {
	out := make([]*Replica, len(p.replicas))
	copy(out, p.replicas)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := rendezvousScore(address, out[i].Base), rendezvousScore(address, out[j].Base)
		if si != sj {
			return si > sj
		}
		return out[i].Base < out[j].Base
	})
	return out
}

// score is the least-loaded ordering key: last-polled queue depth plus
// the gateway's own outstanding dispatches (the freshest signal
// between polls).
func (r *Replica) score() int64 {
	r.mu.Lock()
	load := r.load
	r.mu.Unlock()
	return load + r.dispatched.Load()
}

// available reports whether the replica may receive new submissions:
// healthy (not quarantined behind a failure backoff) and not draining.
func (r *Replica) available() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy && !r.draining
}

// overloaded reports whether the replica is inside a 503 Retry-After
// window.
func (r *Replica) overloaded(now int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return now < r.overloadedUntil
}

// Candidates returns the replicas a submission should be attempted
// against, in order. With an affinity address, the rendezvous owner
// leads (cache hits, dedupe and warm-start snapshots live there);
// the fallback tier is the remaining available replicas from
// shallowest to deepest queue. Replicas inside an overload window sort
// after everything else (they answered 503 recently), and quarantined
// or draining replicas are excluded entirely. An empty slice means the
// cluster is saturated or down — the gateway degrades with a 503.
//
// The first tier is deterministic; the fallback tier deliberately is
// not, because it ranks replicas by measured queue depth.
func (p *Pool) Candidates(address string) []*Replica {
	now := p.now()
	ranked := p.replicas
	if address != "" {
		ranked = p.Rank(address)
	}
	var fresh, stale []*Replica
	for _, r := range ranked {
		if !r.available() {
			continue
		}
		if r.overloaded(now) {
			stale = append(stale, r)
		} else {
			fresh = append(fresh, r)
		}
	}
	// Keep the affinity owner first; order the rest by load. Without an
	// address every position orders by load (pure least-loaded).
	tail := fresh
	var head []*Replica
	if address != "" && len(fresh) > 0 {
		head, tail = fresh[:1], fresh[1:]
	}
	// The fallback tier deliberately orders by measured queue depth —
	// the one knowingly nondeterministic routing input (DESIGN.md §14).
	sort.SliceStable(tail, func(i, j int) bool {
		si, sj := tail[i].score(), tail[j].score()
		if si != sj {
			return si < sj
		}
		return tail[i].Base < tail[j].Base
	})
	out := append(head, tail...)
	return append(out, stale...)
}

// OnSuccess records a successful exchange with the replica: failures
// and quarantine clear immediately (a live response is a better probe
// than any poll).
func (p *Pool) OnSuccess(r *Replica) {
	r.mu.Lock()
	wasDown := !r.healthy
	r.healthy = true
	r.fails = 0
	r.quarantinedUntil = 0
	r.lastErr = ""
	r.mu.Unlock()
	if wasDown {
		r.gUp.Set(1)
	}
}

// OnTransportError records a failed exchange: the replica is
// quarantined behind an exponential backoff window (base doubling per
// consecutive failure, capped), and rejoins when a poll-probe or a
// routed request succeeds.
func (p *Pool) OnTransportError(r *Replica, err error) {
	now := p.now()
	r.mu.Lock()
	r.fails++
	r.healthy = false
	window := p.qBase << (r.fails - 1)
	if window > p.qMax || window <= 0 {
		window = p.qMax
	}
	r.quarantinedUntil = now + window
	if err != nil {
		r.lastErr = err.Error()
	}
	r.mu.Unlock()
	r.gUp.Set(0)
}

// OnOverload records a 503 from the replica: it is deprioritized (not
// quarantined — it is alive and shedding load as configured) for
// retryAfterSec seconds.
func (p *Pool) OnOverload(r *Replica, retryAfterSec int) {
	if retryAfterSec < 1 {
		retryAfterSec = 1
	}
	now := p.now()
	r.mu.Lock()
	until := now + int64(retryAfterSec)*1e9
	if until > r.overloadedUntil {
		r.overloadedUntil = until
	}
	r.mu.Unlock()
}

// RetryAfterSec suggests a client backoff when no replica accepted a
// submission: the soonest expiry among quarantine and overload windows,
// clamped to [1, 30] seconds.
func (p *Pool) RetryAfterSec() int {
	now := p.now()
	var soonest int64
	for _, r := range p.replicas {
		r.mu.Lock()
		until := r.overloadedUntil
		if r.quarantinedUntil > until {
			until = r.quarantinedUntil
		}
		r.mu.Unlock()
		if until > now && (soonest == 0 || until < soonest) {
			soonest = until
		}
	}
	if soonest == 0 {
		return 1
	}
	sec := (soonest - now + 1e9 - 1) / 1e9
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return int(sec)
}

// replicaMetrics is the slice of fdaserve's GET /v1/metrics payload the
// gateway consumes: the load tracker reads queue depth and admission
// headroom, the /v1/metrics aggregate sums the job counts.
type replicaMetrics struct {
	Replica   string         `json:"replica"`
	Jobs      jobs.Counts    `json:"jobs"`
	Admission jobs.Admission `json:"admission"`
}

// Poll refreshes every replica's health and load from its /v1/metrics
// endpoint. Healthy replicas are polled unconditionally; quarantined
// ones only once their backoff window has elapsed (the poll doubles as
// the rejoin probe — success clears the quarantine, failure doubles
// it). Polls run concurrently; Poll returns when all complete.
func (p *Pool) Poll(ctx context.Context) {
	var wg sync.WaitGroup
	now := p.now()
	for _, r := range p.replicas {
		r.mu.Lock()
		probe := r.healthy || now >= r.quarantinedUntil
		r.mu.Unlock()
		if !probe {
			continue
		}
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			p.pollOne(ctx, r)
		}(r)
	}
	wg.Wait()
}

func (p *Pool) pollOne(ctx context.Context, r *Replica) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.Base+"/v1/metrics", nil)
	if err != nil {
		p.OnTransportError(r, err)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.OnTransportError(r, err)
		return
	}
	defer resp.Body.Close()
	var m replicaMetrics
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		p.OnTransportError(r, fmt.Errorf("poll %s/v1/metrics: status %d", r.Base, resp.StatusCode))
		return
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&m); err != nil {
		p.OnTransportError(r, fmt.Errorf("poll %s/v1/metrics: %w", r.Base, err))
		return
	}
	p.OnSuccess(r)
	r.mu.Lock()
	if m.Replica != "" {
		r.name = m.Replica
	}
	r.load = m.Jobs.Queued + m.Jobs.Running
	r.inflight = m.Admission.InFlight
	r.maxQueue = m.Admission.MaxQueue
	r.draining = m.Admission.Draining
	load := r.load
	r.mu.Unlock()
	r.gLoad.Set(float64(load))
	r.gDispatched.Set(float64(r.dispatched.Load()))
}

// Views snapshots every replica's state in configured order.
func (p *Pool) Views() []View {
	now := p.now()
	out := make([]View, 0, len(p.replicas))
	for _, r := range p.replicas {
		r.mu.Lock()
		v := View{
			Name:        r.name,
			Base:        r.Base,
			Prefix:      r.prefix,
			Healthy:     r.healthy,
			Draining:    r.draining,
			Quarantined: !r.healthy && now < r.quarantinedUntil,
			Overloaded:  now < r.overloadedUntil,
			Load:        r.load,
			InFlight:    r.inflight,
			MaxQueue:    r.maxQueue,
			LastError:   r.lastErr,
		}
		if v.Name == "" {
			v.Name = r.Base
		}
		r.mu.Unlock()
		v.Dispatched = r.dispatched.Load()
		out = append(out, v)
	}
	return out
}
