// Package data provides the synthetic classification workloads and the
// data-heterogeneity partitioners used by the experiments.
//
// The paper trains on MNIST, CIFAR-10 and CIFAR-100. Those datasets are
// not available in this offline environment, so each is replaced by a
// seeded synthetic generator that produces an image-classification task of
// matching arity (10/10/100 classes) from Gaussian class prototypes with
// per-class sub-clusters and per-sample noise. What the paper's evaluation
// actually exercises — accuracy-target training dynamics and the effect of
// label-skewed partitioning across workers — depends only on labels and on
// the difficulty of the decision boundaries, both of which the synthetic
// tasks reproduce (see DESIGN.md §1).
package data

import (
	"fmt"

	"repro/internal/tensor"
)

// Dataset is an in-memory supervised classification dataset.
type Dataset struct {
	// X holds one feature vector per sample (flattened images).
	X [][]float64
	// Y holds the class label of each sample, in [0, NumClasses).
	Y []int
	// NumClasses is the label arity.
	NumClasses int
	// Height, Width, Channels describe the image shape of each sample;
	// Height*Width*Channels == len(X[i]). Dense-only models may ignore it.
	Height, Width, Channels int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimension (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks internal consistency and returns a descriptive error for
// malformed datasets (wrong label range, ragged features, shape mismatch).
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("data: %d feature rows but %d labels", len(d.X), len(d.Y))
	}
	if d.NumClasses <= 0 {
		return fmt.Errorf("data: non-positive NumClasses %d", d.NumClasses)
	}
	want := d.Height * d.Width * d.Channels
	for i, x := range d.X {
		if want > 0 && len(x) != want {
			return fmt.Errorf("data: sample %d has dim %d, shape says %d", i, len(x), want)
		}
		if i > 0 && len(x) != len(d.X[0]) {
			return fmt.Errorf("data: ragged features at sample %d", i)
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			return fmt.Errorf("data: label %d out of range at sample %d", y, i)
		}
	}
	return nil
}

// Subset returns a view dataset containing the samples at idx. Feature
// slices are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{
		X:          make([][]float64, len(idx)),
		Y:          make([]int, len(idx)),
		NumClasses: d.NumClasses,
		Height:     d.Height, Width: d.Width, Channels: d.Channels,
	}
	for i, j := range idx {
		sub.X[i] = d.X[j]
		sub.Y[i] = d.Y[j]
	}
	return sub
}

// Shuffle permutes the samples in place.
func (d *Dataset) Shuffle(rng *tensor.RNG) {
	perm := rng.Perm(d.Len())
	x := make([][]float64, d.Len())
	y := make([]int, d.Len())
	for i, j := range perm {
		x[i] = d.X[j]
		y[i] = d.Y[j]
	}
	d.X, d.Y = x, y
}

// ClassCounts returns a histogram of labels.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Batch holds a mini-batch view of a dataset.
type Batch struct {
	X [][]float64
	Y []int
}

// Sampler draws uniform-with-replacement mini-batches from a dataset,
// matching stochastic mini-batch SGD over a worker's local shard D_k.
type Sampler struct {
	ds  *Dataset
	rng *tensor.RNG
}

// NewSampler returns a sampler over ds using rng. It panics on an empty
// dataset: a worker with no data cannot take an SGD step.
func NewSampler(ds *Dataset, rng *tensor.RNG) *Sampler {
	if ds.Len() == 0 {
		panic("data: sampler over empty dataset")
	}
	return &Sampler{ds: ds, rng: rng}
}

// RNGState exposes the sampler's stream position for checkpointing; a
// restored sampler with the same dataset and state draws the same batches.
func (s *Sampler) RNGState() uint64 { return s.rng.State() }

// SetRNGState rewinds the sampler's stream to a captured position.
func (s *Sampler) SetRNGState(st uint64) { s.rng.SetState(st) }

// Sample fills a batch of size b.
func (s *Sampler) Sample(b int) Batch {
	var batch Batch
	s.SampleInto(&batch, b)
	return batch
}

// SampleInto refills batch with b samples drawn like Sample, reusing
// batch's backing slices once they have capacity b. Feature rows are
// views into the dataset, so a steady-state caller that keeps one Batch
// per worker allocates nothing.
func (s *Sampler) SampleInto(batch *Batch, b int) {
	if cap(batch.X) < b || cap(batch.Y) < b {
		batch.X = make([][]float64, b)
		batch.Y = make([]int, b)
	}
	batch.X = batch.X[:b]
	batch.Y = batch.Y[:b]
	for i := 0; i < b; i++ {
		j := s.rng.Intn(s.ds.Len())
		batch.X[i] = s.ds.X[j]
		batch.Y[i] = s.ds.Y[j]
	}
}
