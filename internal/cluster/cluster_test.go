package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/dist"
)

func testPool(t *testing.T, clk *clock.Virtual, bases ...string) *Pool {
	t.Helper()
	p, err := NewPool(bases, Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTrainSpecKeyMatchesDefaults(t *testing.T) {
	// A spec that spells out the defaults and one that leaves them zero
	// must share a key — otherwise gateway affinity and server dedupe
	// would disagree on "the same job".
	short := dist.JobSpec{Model: "lenet5s", Strategy: "LinearFDA"}.WithDefaults()
	long := dist.JobSpec{
		Model: "lenet5s", Strategy: "LinearFDA", Theta: short.Theta,
		Tau: 10, K: 5, Batch: 32, Steps: 200, EvalEvery: 20, Het: "iid", Seed: 1,
	}
	if short.Key() != long.Key() {
		t.Fatalf("defaulted key %q != spelled-out key %q", short.Key(), long.Key())
	}
	if !strings.HasPrefix(short.Key(), "train|lenet5s|LinearFDA|") {
		t.Fatalf("unexpected key shape %q", short.Key())
	}
	distributed := short
	distributed.Distributed = true
	if distributed.Key() == short.Key() {
		t.Fatal("distributed jobs must dedupe under their own key space")
	}
}

func TestAffinityAddressStability(t *testing.T) {
	// Equivalent bodies (defaults spelled out vs omitted, different key
	// order) must produce one address; undecodable or incomplete bodies
	// must carry no affinity.
	a1, ok1 := AffinityAddress("train", []byte(`{"model":"lenet5s","strategy":"LinearFDA"}`))
	a2, ok2 := AffinityAddress("train", []byte(`{"strategy":"LinearFDA","seed":1,"model":"lenet5s","tau":10}`))
	if !ok1 || !ok2 || a1 != a2 {
		t.Fatalf("equivalent train bodies disagree: %q(%v) vs %q(%v)", a1, ok1, a2, ok2)
	}
	if spec, err := dist.ParseJobSpec([]byte(`{"model":"lenet5s","strategy":"LinearFDA"}`)); err != nil || a1 != Address(spec.Key()) {
		t.Fatal("AffinityAddress does not match Address(Key())")
	}
	if _, ok := AffinityAddress("train", []byte(`{"strategy":"LinearFDA"}`)); ok {
		t.Fatal("model-less body must not carry affinity")
	}
	if _, ok := AffinityAddress("train", []byte(`not json`)); ok {
		t.Fatal("undecodable body must not carry affinity")
	}
	s1, ok := AffinityAddress("sweep", []byte(`{"experiment":"fig3"}`))
	s2, _ := AffinityAddress("sweep", []byte(`{"experiment":"fig3","scale":"quick","seed":1}`))
	if !ok || s1 != s2 {
		t.Fatalf("equivalent sweep bodies disagree: %q vs %q", s1, s2)
	}
}

// TestAffinityAddressAllocs bounds the gateway's per-request routing
// work on a train body: decode, defaults, key, hash — a few small
// allocations, not a build of the zoo's networks per request.
func TestAffinityAddressAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	body := []byte(`{"model":"lenet5s","strategy":"LinearFDA"}`)
	n := testing.AllocsPerRun(20, func() {
		if _, ok := AffinityAddress("train", body); !ok {
			t.Fatal("no affinity for a train body")
		}
	})
	if n > 32 {
		t.Fatalf("AffinityAddress allocates %v times, want at most 32", n)
	}
}

func TestRendezvousDeterministicAndBalanced(t *testing.T) {
	clk := &clock.Virtual{}
	bases := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	p1 := testPool(t, clk, bases...)
	p2 := testPool(t, clk, bases[3], bases[1], bases[0], bases[2]) // reordered

	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		addr := Address(fmt.Sprintf("spec-%d", i))
		o1 := p1.Rank(addr)[0].Base
		o2 := p2.Rank(addr)[0].Base
		if o1 != o2 {
			t.Fatalf("owner depends on configuration order: %s vs %s for %s", o1, o2, addr)
		}
		counts[o1]++
	}
	// Rendezvous hashing over 4 replicas should land near 250 each;
	// anything outside [150, 350] indicates a broken hash.
	for base, n := range counts {
		if n < 150 || n > 350 {
			t.Fatalf("unbalanced ownership: %s owns %d of 1000", base, n)
		}
	}
}

func TestRendezvousMinimalDisruption(t *testing.T) {
	// Removing one replica must only remap the addresses it owned;
	// every other address keeps its owner (the property that makes
	// rendezvous hashing cache-friendly under membership change).
	clk := &clock.Virtual{}
	all := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	full := testPool(t, clk, all...)
	reduced := testPool(t, clk, all[:3]...)
	moved := 0
	for i := 0; i < 500; i++ {
		addr := Address(fmt.Sprintf("spec-%d", i))
		was := full.Rank(addr)[0].Base
		now := reduced.Rank(addr)[0].Base
		if was == all[3] {
			moved++
			continue // owner removed; must move somewhere
		}
		if was != now {
			t.Fatalf("address %s moved from surviving owner %s to %s", addr, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("test vacuous: removed replica owned nothing")
	}
}

func TestCandidatesAffinityAndLoadOrder(t *testing.T) {
	clk := &clock.Virtual{}
	p := testPool(t, clk, "http://a:1", "http://b:1", "http://c:1")
	addr := Address("some-spec")
	owner := p.Rank(addr)[0]

	// Give the owner the deepest queue: affinity must still win the
	// first slot (cache hits beat load), with the rest ordered by load.
	for _, r := range p.replicas {
		r.mu.Lock()
		r.load = 1
		r.mu.Unlock()
	}
	owner.mu.Lock()
	owner.load = 100
	owner.mu.Unlock()

	cands := p.Candidates(addr)
	if len(cands) != 3 || cands[0] != owner {
		t.Fatalf("affinity owner not first: got %v", cands)
	}

	// Without an address the ordering is pure least-loaded: the owner
	// (load 100) must now sort last.
	cands = p.Candidates("")
	if cands[len(cands)-1] != owner {
		t.Fatalf("least-loaded fallback ignored load: got %s last, want %s", cands[len(cands)-1].Base, owner.Base)
	}
}

func TestCandidatesOverloadAndQuarantine(t *testing.T) {
	clk := &clock.Virtual{}
	p := testPool(t, clk, "http://a:1", "http://b:1", "http://c:1")
	addr := Address("spec")
	ranked := p.Rank(addr)
	owner, second := ranked[0], ranked[1]

	// An overloaded owner is deprioritized (but still attempted last).
	p.OnOverload(owner, 2)
	cands := p.Candidates(addr)
	if cands[0] == owner {
		t.Fatal("overloaded owner still leads the candidate list")
	}
	if cands[len(cands)-1] != owner {
		t.Fatal("overloaded owner should remain as the last-resort candidate")
	}
	// The window expires with the clock.
	clk.Advance(3e9)
	if cands = p.Candidates(addr); cands[0] != owner {
		t.Fatal("owner did not recover first slot after the overload window")
	}

	// A quarantined replica is excluded entirely.
	p.OnTransportError(second, fmt.Errorf("connection refused"))
	for _, c := range p.Candidates(addr) {
		if c == second {
			t.Fatal("quarantined replica still a candidate")
		}
	}
	// A successful exchange reinstates it immediately.
	p.OnSuccess(second)
	found := false
	for _, c := range p.Candidates(addr) {
		found = found || c == second
	}
	if !found {
		t.Fatal("recovered replica not reinstated")
	}
}

func TestQuarantineBackoffDoubles(t *testing.T) {
	clk := &clock.Virtual{}
	p := testPool(t, clk, "http://a:1")
	r := p.Replicas()[0]
	wantWindows := []int64{0.5e9, 1e9, 2e9, 4e9, 8e9, 16e9, 30e9, 30e9} // doubling, capped
	for i, want := range wantWindows {
		p.OnTransportError(r, fmt.Errorf("down"))
		r.mu.Lock()
		got := r.quarantinedUntil - clk.Now()
		r.mu.Unlock()
		if got != want {
			t.Fatalf("failure %d: quarantine window %d, want %d", i+1, got, want)
		}
	}
	if got := p.RetryAfterSec(); got != 30 {
		t.Fatalf("RetryAfterSec = %d, want 30 (soonest window)", got)
	}
	clk.Advance(30e9 - 1)
	if got := p.RetryAfterSec(); got != 1 {
		t.Fatalf("RetryAfterSec 1ns before the window closes = %d, want 1", got)
	}
	// The window must actually gate polling probes until it elapses.
	if r.available() {
		t.Fatal("quarantined replica reports available")
	}
}

func TestSplitID(t *testing.T) {
	clk := &clock.Virtual{}
	p := testPool(t, clk, "http://a:1", "http://b:1")
	r := p.Replicas()[0]
	id := r.prefix + "-r17"
	got, upstream, ok := p.SplitID(id)
	if !ok || got != r || upstream != "r17" {
		t.Fatalf("SplitID(%q) = %v, %q, %v", id, got, upstream, ok)
	}
	for _, bad := range []string{"", "r17", "ffffff-r17", "-r17", r.prefix + "-"} {
		if _, _, ok := p.SplitID(bad); ok {
			t.Fatalf("SplitID(%q) unexpectedly resolved", bad)
		}
	}
}

func TestPollAdoptsReplicaState(t *testing.T) {
	var draining atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"replica":"r-test","jobs":{"queued":2,"running":3},"admission":{"in_flight":5,"max_queue":8,"draining":%v}}`, draining.Load())
	}))
	defer ts.Close()
	clk := &clock.Virtual{}
	p := testPool(t, clk, ts.URL)
	p.Poll(t.Context())
	v := p.Views()[0]
	if v.Name != "r-test" || v.Load != 5 || v.InFlight != 5 || v.MaxQueue != 8 || v.Draining {
		t.Fatalf("poll state not adopted: %+v", v)
	}
	draining.Store(true)
	p.Poll(t.Context())
	if !p.Views()[0].Draining {
		t.Fatal("draining flag not adopted")
	}
	if got := p.Candidates(""); len(got) != 0 {
		t.Fatalf("draining replica still a candidate: %v", got)
	}
}

// FuzzAffinityAddress feeds the gateway's submission classifier the
// bytes of an arbitrary request body. It must never panic; it hands out
// an address exactly when the replica's parser (dist.ParseJobSpec,
// ParseSweepSpec) admits the body, that address is the parsed spec's
// Address(Key()), and re-encoding the parsed spec routes to the same
// address — the property that lets any gateway instance, and the owning
// replica's dedupe table, agree on what "the same job" is however the
// client spelled it.
func FuzzAffinityAddress(f *testing.F) {
	topk := `{"strategy":"FedAdam","seed":7,"model":"vgg16s","tau":3,"topk":0.1,"qbits":8,"distributed":true}`
	nosuchmodel := `{"model":"nosuchmodel","strategy":"LinearFDA","theta":-0,"target":1e-320,"het":"label:2"}`
	het := func(h, extra string) string {
		return `{"model":"lenet5s","strategy":"LinearFDA","het":"` + h + `"` + extra + `}`
	}
	// Splits the partitioner would refuse (lenet5s has 10 classes, a
	// label split needs 2 holders) and one with no parser.
	refused := []string{topk, nosuchmodel, het("pct150", ""), het("pctNaN", ""), het("label99", ""),
		het("label-1", ""), het("label0", `,"k":1`), het("dir0.5", "")}
	for _, body := range refused {
		if addr, ok := AffinityAddress("train", []byte(body)); ok {
			f.Fatalf("%s routed to %s; the replica refuses it", body, addr)
		}
		f.Add(false, []byte(body))
	}
	// Other spellings of one split route as its canonical spelling.
	for canonical, spellings := range map[string][]string{"pct60": {"pct60.0", "pct6e1"}, "label0": {"label00", "label+0"}} {
		want, _ := AffinityAddress("train", []byte(het(canonical, "")))
		for _, h := range spellings {
			if addr, ok := AffinityAddress("train", []byte(het(h, ""))); !ok || addr != want {
				f.Fatalf("%s routed to %s (ok=%v), %s to %s", het(h, ""), addr, ok, het(canonical, ""), want)
			}
			f.Add(false, []byte(het(h, "")))
		}
	}
	f.Add(false, []byte(trainBody))
	f.Add(false, []byte(`{"model":"lenet5s","strategy":"LinearFDA","target":-0}`))
	f.Add(false, []byte(`{"strategy":"LinearFDA"}`))
	f.Add(true, []byte(`{"experiment":"fig3"}`))
	f.Add(true, []byte(`{"experiment":"fig|3","scale":"tiny","seed":18446744073709551615}`))
	f.Add(true, []byte(`not json`))
	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		kind := "train"
		var key string
		var canonical []byte
		var perr error
		if sweep {
			kind = "sweep"
			s, err := ParseSweepSpec(body)
			key, perr = s.Key(), err
			canonical, _ = json.Marshal(s)
		} else {
			s, err := dist.ParseJobSpec(body)
			key, perr = s.Key(), err
			canonical, _ = json.Marshal(s)
		}
		addr, ok := AffinityAddress(kind, body)
		if ok != (perr == nil) {
			t.Fatalf("%s body %q: affinity %v, parser error %v", kind, body, ok, perr)
		}
		if !ok {
			return
		}
		if addr != Address(key) {
			t.Fatalf("%s body %q addresses to %s, its parsed key %q to %s", kind, body, addr, key, Address(key))
		}
		if again, ok := AffinityAddress(kind, canonical); !ok || again != addr {
			t.Fatalf("%s body %q addresses to %s, its parsed re-encoding %s to %s (ok=%v)", kind, body, addr, canonical, again, ok)
		}
	})
}
