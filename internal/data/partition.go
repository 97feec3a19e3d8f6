package data

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// The three data-distribution scenarios of the paper (§4.1):
//
//  1. IID — samples are shuffled and split evenly.
//  2. Non-IID X% — a fraction X% of the dataset is sorted by label and
//     dealt out sequentially (so some workers get long same-label runs);
//     the remainder is distributed IID.
//  3. Non-IID label Y — every sample of label Y goes to a small group of
//     workers; the rest is IID.
//
// All partitioners split the data into K approximately equal shards and
// conserve every sample exactly once.

// PartitionIID splits ds into K equal IID shards.
func PartitionIID(ds *Dataset, k int, rng *tensor.RNG) []*Dataset {
	checkPartitionArgs(ds, k)
	perm := rng.Perm(ds.Len())
	return dealRoundRobin(ds, perm, k)
}

// PartitionNonIIDPercent implements scenario 2: pct (in [0,100]) percent
// of the samples are sorted by label and assigned in contiguous blocks;
// the rest are spread IID. pct=0 degenerates to IID, pct=100 to fully
// sorted shards.
func PartitionNonIIDPercent(ds *Dataset, k int, pct float64, rng *tensor.RNG) []*Dataset {
	checkPartitionArgs(ds, k)
	if !(pct >= 0 && pct <= 100) {
		panic(fmt.Sprintf("data: pct %v out of [0,100]", pct))
	}
	n := ds.Len()
	perm := rng.Perm(n)
	nSorted := int(float64(n) * pct / 100)

	sorted := append([]int(nil), perm[:nSorted]...)
	sort.Slice(sorted, func(a, b int) bool { return ds.Y[sorted[a]] < ds.Y[sorted[b]] })
	rest := perm[nSorted:]

	// Deal the sorted block in contiguous chunks so each worker receives
	// long same-label runs, then spread the remainder round-robin.
	shards := make([][]int, k)
	chunk := (nSorted + k - 1) / k
	for w := 0; w < k; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo > nSorted {
			lo = nSorted
		}
		if hi > nSorted {
			hi = nSorted
		}
		shards[w] = append(shards[w], sorted[lo:hi]...)
	}
	for i, idx := range rest {
		w := i % k
		shards[w] = append(shards[w], idx)
	}
	return subsets(ds, shards)
}

// labelHolders is how many workers hold all of the label scenario's
// samples of its label: the paper's scenario 3 concentrates a label on
// two workers.
const labelHolders = 2

// PartitionNonIIDLabel implements scenario 3: all samples with label y are
// concentrated on labelHolders workers (k ≥ labelHolders); everything
// else is IID across all K workers. To keep shard sizes approximately
// equal, the IID remainder is dealt preferentially to the non-holder
// workers first.
func PartitionNonIIDLabel(ds *Dataset, k, label int, rng *tensor.RNG) []*Dataset {
	checkPartitionArgs(ds, k)
	if label < 0 || label >= ds.NumClasses {
		panic(fmt.Sprintf("data: label %d out of range", label))
	}
	if labelHolders > k {
		panic(fmt.Sprintf("data: %d label holders out of [1,%d]", labelHolders, k))
	}
	var labelled, rest []int
	for i, y := range ds.Y {
		if y == label {
			labelled = append(labelled, i)
		} else {
			rest = append(rest, i)
		}
	}
	rng.Shuffle(labelled)
	rng.Shuffle(rest)

	shards := make([][]int, k)
	for i, idx := range labelled {
		shards[i%labelHolders] = append(shards[i%labelHolders], idx)
	}
	// Balance: fill shards smallest-first with the remaining samples.
	target := ds.Len() / k
	w := labelHolders % k
	for _, idx := range rest {
		// Skip workers already at or above the target unless everyone is.
		tries := 0
		for len(shards[w]) >= target+1 && tries < k {
			w = (w + 1) % k
			tries++
		}
		shards[w] = append(shards[w], idx)
		w = (w + 1) % k
	}
	return subsets(ds, shards)
}

func checkPartitionArgs(ds *Dataset, k int) {
	if k <= 0 {
		panic(fmt.Sprintf("data: non-positive worker count %d", k))
	}
	if ds.Len() < k {
		panic(fmt.Sprintf("data: %d samples cannot cover %d workers", ds.Len(), k))
	}
}

func dealRoundRobin(ds *Dataset, order []int, k int) []*Dataset {
	shards := make([][]int, k)
	for i, idx := range order {
		shards[i%k] = append(shards[i%k], idx)
	}
	return subsets(ds, shards)
}

func subsets(ds *Dataset, shards [][]int) []*Dataset {
	out := make([]*Dataset, len(shards))
	for i, idx := range shards {
		out[i] = ds.Subset(idx)
	}
	return out
}

// Heterogeneity names a data-distribution scenario for experiment configs.
type Heterogeneity struct {
	// Kind is "iid", "percent" or "label".
	Kind string
	// Pct is used when Kind == "percent".
	Pct float64
	// Label is used when Kind == "label".
	Label int
}

// IID is the identically-distributed scenario.
func IID() Heterogeneity { return Heterogeneity{Kind: "iid"} }

// NonIIDPercent is the sorted-fraction scenario.
func NonIIDPercent(pct float64) Heterogeneity {
	return Heterogeneity{Kind: "percent", Pct: pct}
}

// NonIIDLabel is the concentrated-label scenario: every sample of label
// on two workers.
func NonIIDLabel(label int) Heterogeneity {
	return Heterogeneity{Kind: "label", Label: label}
}

// ParseHeterogeneity converts the CLI/API selector grammar — "iid",
// "label<Y>", "pct<X>" — into a scenario. It is the single parser shared
// by fdarun, fdaserve and the distributed job spec, so every surface
// accepts exactly the same spellings.
func ParseHeterogeneity(s string) (Heterogeneity, error) {
	switch {
	case s == "" || s == "iid":
		return IID(), nil
	case strings.HasPrefix(s, "label"):
		y, err := strconv.Atoi(strings.TrimPrefix(s, "label"))
		if err != nil {
			return Heterogeneity{}, fmt.Errorf("data: bad heterogeneity %q", s)
		}
		return NonIIDLabel(y), nil
	case strings.HasPrefix(s, "pct"):
		x, err := strconv.ParseFloat(strings.TrimPrefix(s, "pct"), 64)
		if err != nil {
			return Heterogeneity{}, fmt.Errorf("data: bad heterogeneity %q", s)
		}
		return NonIIDPercent(x), nil
	default:
		return Heterogeneity{}, fmt.Errorf("data: unknown heterogeneity %q", s)
	}
}

// Selector is the canonical spelling of h in ParseHeterogeneity's
// grammar ("iid", "label<Y>", "pct<X>" with X printed shortest), so
// every spelling that parses to one scenario prints one string.
func (h Heterogeneity) Selector() string {
	switch h.Kind {
	case "percent":
		return "pct" + strconv.FormatFloat(h.Pct+0, 'g', -1, 64)
	case "label":
		return "label" + strconv.Itoa(h.Label)
	default:
		return "iid"
	}
}

// Check reports what Partition would refuse for k ≥ 1 workers over a
// dataset of the given label arity: a percent outside [0, 100] (NaN
// included), a label outside [0, classes), or more label holders than
// workers. Admission calls it so a bad scenario is an error, not a
// panic in the partitioner.
func (h Heterogeneity) Check(classes, k int) error {
	switch h.Kind {
	case "iid", "":
	case "percent":
		if !(h.Pct >= 0 && h.Pct <= 100) {
			return fmt.Errorf("pct %v out of [0,100]", h.Pct)
		}
	case "label":
		if h.Label < 0 || h.Label >= classes {
			return fmt.Errorf("label %d out of [0,%d)", h.Label, classes)
		}
		if labelHolders > k {
			return fmt.Errorf("%d label holders out of [1,%d] (K)", labelHolders, k)
		}
	default:
		return fmt.Errorf("unknown heterogeneity kind %q", h.Kind)
	}
	return nil
}

// String returns the paper's naming for the scenario.
func (h Heterogeneity) String() string {
	switch h.Kind {
	case "iid", "":
		return "IID"
	case "percent":
		return fmt.Sprintf("Non-IID: %.0f%%", h.Pct)
	case "label":
		return fmt.Sprintf("Non-IID: Label %q", fmt.Sprint(h.Label))
	default:
		return "unknown"
	}
}

// Partition applies the scenario to ds.
func (h Heterogeneity) Partition(ds *Dataset, k int, rng *tensor.RNG) []*Dataset {
	switch h.Kind {
	case "iid", "":
		return PartitionIID(ds, k, rng)
	case "percent":
		return PartitionNonIIDPercent(ds, k, h.Pct, rng)
	case "label":
		return PartitionNonIIDLabel(ds, k, h.Label, rng)
	default:
		panic("data: unknown heterogeneity kind " + h.Kind)
	}
}
