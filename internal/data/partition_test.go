package data

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// conservesSamples checks every sample lands in exactly one shard, using
// the unique first-feature tags applied by taggedDataset.
func conservesSamples(t *testing.T, ds *Dataset, shards []*Dataset) {
	t.Helper()
	total := 0
	seen := map[float64]bool{}
	for _, s := range shards {
		total += s.Len()
		for _, x := range s.X {
			if seen[x[0]] {
				t.Fatalf("sample tag %v assigned twice", x[0])
			}
			seen[x[0]] = true
		}
	}
	if total != ds.Len() {
		t.Fatalf("shards hold %d samples want %d", total, ds.Len())
	}
}

func taggedDataset(n, classes int) *Dataset {
	ds := tinyDataset(n, classes)
	for i := range ds.X {
		ds.X[i] = tensor.Clone(ds.X[i])
		ds.X[i][0] = float64(i) + 0.5 // unique tag
	}
	return ds
}

func TestPartitionIIDConservesAndBalances(t *testing.T) {
	ds := taggedDataset(100, 5)
	shards := PartitionIID(ds, 7, tensor.NewRNG(1))
	conservesSamples(t, ds, shards)
	for _, s := range shards {
		if s.Len() < 100/7 || s.Len() > 100/7+1 {
			t.Fatalf("IID shard size %d not balanced", s.Len())
		}
	}
}

func TestPartitionIIDLabelSpread(t *testing.T) {
	ds := taggedDataset(500, 5)
	shards := PartitionIID(ds, 5, tensor.NewRNG(2))
	// Each shard should contain every class (high probability with 100
	// samples per shard, 5 classes).
	for i, s := range shards {
		counts := s.ClassCounts()
		for c, n := range counts {
			if n == 0 {
				t.Fatalf("IID shard %d missing class %d", i, c)
			}
		}
	}
}

func TestPartitionNonIIDPercentZeroIsIIDLike(t *testing.T) {
	ds := taggedDataset(90, 3)
	shards := PartitionNonIIDPercent(ds, 3, 0, tensor.NewRNG(3))
	conservesSamples(t, ds, shards)
}

func TestPartitionNonIIDPercentFullSortSkews(t *testing.T) {
	ds := taggedDataset(300, 3)
	shards := PartitionNonIIDPercent(ds, 3, 100, tensor.NewRNG(4))
	conservesSamples(t, ds, shards)
	// With 100% sorted into 3 shards of 3 balanced classes, each shard
	// should be dominated by a single class.
	for i, s := range shards {
		counts := s.ClassCounts()
		maxc := 0
		for _, n := range counts {
			if n > maxc {
				maxc = n
			}
		}
		if float64(maxc) < 0.9*float64(s.Len()) {
			t.Fatalf("shard %d not label-skewed under 100%% sort: %v", i, counts)
		}
	}
}

func TestPartitionNonIIDPercentSixtySkewsSome(t *testing.T) {
	ds := taggedDataset(600, 10)
	shards := PartitionNonIIDPercent(ds, 10, 60, tensor.NewRNG(5))
	conservesSamples(t, ds, shards)
	// At least one worker should see a heavily skewed distribution.
	skewed := false
	for _, s := range shards {
		counts := s.ClassCounts()
		for _, n := range counts {
			if float64(n) > 0.4*float64(s.Len()) {
				skewed = true
			}
		}
	}
	if !skewed {
		t.Fatal("60% sort produced no skewed shard")
	}
}

func TestPartitionNonIIDLabelConcentrates(t *testing.T) {
	ds := taggedDataset(400, 4)
	shards := PartitionNonIIDLabel(ds, 8, 0, tensor.NewRNG(6))
	conservesSamples(t, ds, shards)
	for i := 2; i < 8; i++ {
		if got := shards[i].ClassCounts()[0]; got != 0 {
			t.Fatalf("non-holder shard %d holds %d samples of label 0", i, got)
		}
	}
	got := shards[0].ClassCounts()[0] + shards[1].ClassCounts()[0]
	if got != 100 {
		t.Fatalf("holders have %d label-0 samples want 100", got)
	}
}

func TestPartitionNonIIDLabelShardsRoughlyBalanced(t *testing.T) {
	ds := taggedDataset(400, 4)
	shards := PartitionNonIIDLabel(ds, 8, 0, tensor.NewRNG(7))
	for i, s := range shards {
		if s.Len() < 30 || s.Len() > 70 {
			t.Fatalf("shard %d size %d far from balanced 50", i, s.Len())
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	ds := taggedDataset(10, 2)
	for _, f := range []func(){
		func() { PartitionIID(ds, 0, tensor.NewRNG(1)) },
		func() { PartitionIID(ds, 11, tensor.NewRNG(1)) },
		func() { PartitionNonIIDPercent(ds, 2, 120, tensor.NewRNG(1)) },
		func() { PartitionNonIIDPercent(ds, 2, math.NaN(), tensor.NewRNG(1)) },
		func() { PartitionNonIIDLabel(ds, 2, 9, tensor.NewRNG(1)) },
		func() { PartitionNonIIDLabel(ds, 1, 0, tensor.NewRNG(1)) },
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

func TestHeterogeneityString(t *testing.T) {
	if got := IID().String(); got != "IID" {
		t.Fatalf("IID string %q", got)
	}
	if got := NonIIDPercent(60).String(); got != "Non-IID: 60%" {
		t.Fatalf("percent string %q", got)
	}
	if got := NonIIDLabel(0).String(); got != `Non-IID: Label "0"` {
		t.Fatalf("label string %q", got)
	}
}

// TestHeterogeneitySelector: every spelling of one split prints one
// canonical selector, which parses back to the same split.
func TestHeterogeneitySelector(t *testing.T) {
	for spelling, want := range map[string]string{
		"": "iid", "iid": "iid", "pct60": "pct60", "pct60.0": "pct60", "pct6e1": "pct60", "pct-0": "pct0",
		"pct12.5": "pct12.5", "label0": "label0", "label00": "label0", "label+0": "label0", "label7": "label7",
	} {
		h, err := ParseHeterogeneity(spelling)
		if err != nil {
			t.Fatalf("%q: %v", spelling, err)
		}
		if got := h.Selector(); got != want {
			t.Errorf("%q: selector %q, want %q", spelling, got, want)
		}
		if again, _ := ParseHeterogeneity(want); again != h {
			t.Errorf("%q: %q parses to %+v, not %+v", spelling, want, again, h)
		}
	}
}

// TestHeterogeneityCheck: Check refuses exactly the splits Partition
// panics on, NaN percent included, for 10 classes and K = 2.
func TestHeterogeneityCheck(t *testing.T) {
	for _, h := range []Heterogeneity{IID(), NonIIDPercent(0), NonIIDPercent(100), NonIIDLabel(9)} {
		if err := h.Check(10, 2); err != nil {
			t.Errorf("%+v: %v", h, err)
		}
	}
	for _, h := range []Heterogeneity{NonIIDPercent(-1), NonIIDPercent(150), NonIIDPercent(math.NaN()),
		NonIIDLabel(10), NonIIDLabel(-1), {Kind: "zipf"}} {
		if err := h.Check(10, 2); err == nil {
			t.Errorf("%+v accepted", h)
		}
	}
	if err := NonIIDLabel(0).Check(10, 1); err == nil {
		t.Error("a label split over K = 1 accepted")
	}
}

func TestHeterogeneityDispatch(t *testing.T) {
	ds := taggedDataset(120, 4)
	for _, h := range []Heterogeneity{IID(), NonIIDPercent(50), NonIIDLabel(1)} {
		shards := h.Partition(ds, 4, tensor.NewRNG(8))
		conservesSamples(t, ds, shards)
	}
}

// Property: for any valid (n, k) the IID partitioner conserves sample
// count and balances within one sample.
func TestPartitionIIDProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		n := int(nRaw%200) + k
		ds := taggedDataset(n, 3)
		shards := PartitionIID(ds, k, tensor.NewRNG(uint64(nRaw)*31+uint64(kRaw)))
		total := 0
		minSz, maxSz := n, 0
		for _, s := range shards {
			total += s.Len()
			if s.Len() < minSz {
				minSz = s.Len()
			}
			if s.Len() > maxSz {
				maxSz = s.Len()
			}
		}
		return total == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
