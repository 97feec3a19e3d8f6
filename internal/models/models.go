// Package models is the model zoo for the experiments: one builder per
// architecture row of the paper's Table 2, scaled to CPU-simulation size
// while preserving the paper's ordering of model dimensions
// (LeNet-5 < VGG16* < DenseNet121 < DenseNet201 < ConvNeXtLarge), each
// architecture's layer vocabulary (convolutions + pooling for the CNNs,
// dropout for the DenseNets, a pretrained dense trunk for ConvNeXt), and
// each row's initialization scheme and local optimizer.
//
// Θ scales linearly with d in the paper (Figure 12), so preserving the
// d-ordering preserves every cross-model comparison; see DESIGN.md §1.
package models

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// Spec describes one Table 2 row at reproduction scale.
type Spec struct {
	// Name is the zoo identifier (lenet5s, vgg16s, ...).
	Name string
	// PaperModel and PaperParams record what the row stands in for.
	PaperModel  string
	PaperParams string
	// Dataset names the synthetic workload ("mnist-like", "cifar10-like",
	// "cifar100-like").
	Dataset string
	// Classes is Dataset's label arity, the width of the model's output.
	Classes int
	// Optimizer is the paper's local optimizer for this row.
	Optimizer opt.Factory
	// OptimizerName is used in the Table 2 rendering.
	OptimizerName string
	// Build constructs a replica for the given dataset shape.
	Build core.ModelBuilder
	// Params is the reproduction's model dimension d.
	Params int
	// ThetaGrid is the default Θ sweep for the row, scaled from the
	// paper's Θ ≈ c·d guideline to this d.
	ThetaGrid []float64
	// Algorithms lists the strategies the paper ran on this row.
	Algorithms string
}

// thetaGrid builds a Θ sweep proportional to the model dimension, using
// multipliers that bracket the paper's empirical constants
// (2.74e-5·d … 4.91e-5·d, Figure 12).
func thetaGrid(d int) []float64 {
	mults := []float64{1e-5, 2e-5, 4e-5, 8e-5}
	grid := make([]float64, len(mults))
	for i, m := range mults {
		grid[i] = m * float64(d)
	}
	return grid
}

// countParams instantiates a builder once to measure d. Catalog and
// ByName build each spec once per process, so this runs five times in
// all, not once per lookup.
func countParams(b core.ModelBuilder) int {
	return b(tensor.NewRNG(0)).NumParams()
}

// LeNet5S is the LeNet-5 stand-in (paper: 62K params, MNIST, Adam,
// Glorot uniform): two conv+pool stages and a small dense head on the
// 8×8×1 mnist-like task.
func LeNet5S() Spec {
	in := nn.Shape{H: 8, W: 8, C: 1}
	build := func(rng *tensor.RNG) *nn.Network {
		c1 := nn.NewConv2D(in, 6, 3, nn.GlorotUniformInit)
		p1 := nn.NewMaxPool2D(c1.OutShape(), 2)
		c2 := nn.NewConv2D(p1.OutShape(), 12, 3, nn.GlorotUniformInit)
		p2 := nn.NewMaxPool2D(c2.OutShape(), 2)
		return nn.New(rng,
			c1, nn.NewReLU(c1.OutDim()), p1,
			c2, nn.NewReLU(c2.OutDim()), p2,
			nn.NewDense(p2.OutDim(), 32, nn.GlorotUniformInit),
			nn.NewReLU(32),
			nn.NewDense(32, 10, nn.GlorotUniformInit),
		)
	}
	d := countParams(build)
	return Spec{
		Name: "lenet5s", PaperModel: "LeNet-5", PaperParams: "62K",
		Dataset: "mnist-like", Classes: 10, Optimizer: opt.NewAdam(1e-3), OptimizerName: "Adam",
		Build: build, Params: d, ThetaGrid: thetaGrid(d),
		Algorithms: "FDA, Synchronous, FedAdam",
	}
}

// VGG16S is the VGG16* stand-in (paper: 2.6M params, MNIST, Adam, Glorot
// uniform): a deeper double-conv-block network with a larger dense head.
func VGG16S() Spec {
	in := nn.Shape{H: 8, W: 8, C: 1}
	build := func(rng *tensor.RNG) *nn.Network {
		c1 := nn.NewConv2D(in, 8, 3, nn.GlorotUniformInit)
		c2 := nn.NewConv2D(c1.OutShape(), 8, 3, nn.GlorotUniformInit)
		p1 := nn.NewMaxPool2D(c2.OutShape(), 2)
		c3 := nn.NewConv2D(p1.OutShape(), 16, 3, nn.GlorotUniformInit)
		p2 := nn.NewMaxPool2D(c3.OutShape(), 2)
		return nn.New(rng,
			c1, nn.NewReLU(c1.OutDim()),
			c2, nn.NewReLU(c2.OutDim()), p1,
			c3, nn.NewReLU(c3.OutDim()), p2,
			nn.NewDense(p2.OutDim(), 96, nn.GlorotUniformInit),
			nn.NewReLU(96),
			nn.NewDense(96, 96, nn.GlorotUniformInit),
			nn.NewReLU(96),
			nn.NewDense(96, 10, nn.GlorotUniformInit),
		)
	}
	d := countParams(build)
	return Spec{
		Name: "vgg16s", PaperModel: "VGG16*", PaperParams: "2.6M",
		Dataset: "mnist-like", Classes: 10, Optimizer: opt.NewAdam(1e-3), OptimizerName: "Adam",
		Build: build, Params: d, ThetaGrid: thetaGrid(d),
		Algorithms: "FDA, Synchronous, FedAdam",
	}
}

// DenseNet121S is the DenseNet121 stand-in (paper: 6.9M params, CIFAR-10,
// SGD with Nesterov momentum, He normal, dropout 0.2, weight decay 1e-4):
// a three-stage CNN with dropout and a global-average-pool head on the
// 12×12×3 cifar10-like task.
func DenseNet121S() Spec {
	return densenet("densenet121s", "DenseNet121", "6.9M", 8, 14, 20, 160)
}

// DenseNet201S is the DenseNet201 stand-in (paper: 18M params): the same
// family, wider, so d(densenet201s) > d(densenet121s).
func DenseNet201S() Spec {
	return densenet("densenet201s", "DenseNet201", "18M", 12, 20, 28, 224)
}

func densenet(name, paperModel, paperParams string, ch1, ch2, ch3, head int) Spec {
	in := nn.Shape{H: 12, W: 12, C: 3}
	build := func(rng *tensor.RNG) *nn.Network {
		drop := rng.Split()
		c1 := nn.NewConv2D(in, ch1, 3, nn.HeNormalInit)
		p1 := nn.NewMaxPool2D(c1.OutShape(), 2) // 6×6
		c2 := nn.NewConv2D(p1.OutShape(), ch2, 3, nn.HeNormalInit)
		p2 := nn.NewMaxPool2D(c2.OutShape(), 2) // 3×3
		c3 := nn.NewConv2D(p2.OutShape(), ch3, 3, nn.HeNormalInit)
		gap := nn.NewGlobalAvgPool(c3.OutShape())
		return nn.New(rng,
			c1, nn.NewReLU(c1.OutDim()), p1,
			c2, nn.NewReLU(c2.OutDim()), p2,
			c3, nn.NewReLU(c3.OutDim()), gap,
			nn.NewDropout(gap.OutDim(), 0.2, drop),
			nn.NewDense(gap.OutDim(), head, nn.HeNormalInit),
			nn.NewReLU(head),
			nn.NewDense(head, head, nn.HeNormalInit),
			nn.NewReLU(head),
			nn.NewDense(head, 10, nn.HeNormalInit),
		)
	}
	d := countParams(build)
	return Spec{
		Name: name, PaperModel: paperModel, PaperParams: paperParams,
		Dataset: "cifar10-like", Classes: 10,
		Optimizer: opt.NewSGDNesterov(0.05, 0.9, 1e-4), OptimizerName: "SGD-NM",
		Build: build, Params: d, ThetaGrid: thetaGrid(d),
		Algorithms: "FDA, Synchronous, FedAvgM",
	}
}

// ConvNeXtS is the ConvNeXtLarge transfer-learning stand-in (paper: 198M
// params pre-trained on ImageNet, fine-tuned on CIFAR-100 with AdamW).
// The "pre-trained backbone" is a wide dense trunk; PretrainedInit below
// produces the weights after the paper's feature-extraction stage (≈60%
// test accuracy with only the head trained), and the FDA experiment then
// fine-tunes the entire model.
func ConvNeXtS() Spec {
	inDim := 12 * 12 * 3
	build := func(rng *tensor.RNG) *nn.Network {
		return nn.New(rng,
			nn.NewDense(inDim, 160, nn.HeNormalInit),
			nn.NewReLU(160),
			nn.NewDense(160, 96, nn.HeNormalInit),
			nn.NewReLU(96),
			nn.NewDense(96, 100, nn.GlorotUniformInit),
		)
	}
	d := countParams(build)
	return Spec{
		Name: "convnexts", PaperModel: "ConvNeXtLarge (fine-tuning)", PaperParams: "198M",
		Dataset: "cifar100-like", Classes: 100,
		Optimizer: opt.NewAdamW(5e-4, 1e-4), OptimizerName: "AdamW",
		Build: build, Params: d, ThetaGrid: thetaGrid(d),
		Algorithms: "FDA, Synchronous",
	}
}

// catalog is the zoo, built once per process: each spec's countParams
// initializes a full network, too much to repeat on every lookup of a
// request path. Callers only ever see copies.
var catalog = sync.OnceValue(func() []Spec {
	return []Spec{LeNet5S(), VGG16S(), DenseNet121S(), DenseNet201S(), ConvNeXtS()}
})

// clone copies s with its own ThetaGrid, so a caller that edits the grid
// cannot change the cached spec.
func (s Spec) clone() Spec {
	s.ThetaGrid = slices.Clone(s.ThetaGrid)
	return s
}

// Catalog returns all Table 2 rows in the paper's order. The specs are
// built once per process; each call returns fresh copies.
func Catalog() []Spec {
	cat := catalog()
	out := make([]Spec, len(cat))
	for i, s := range cat {
		out[i] = s.clone()
	}
	return out
}

// ByName returns a copy of the spec with the given zoo name, from the
// catalog built once per process.
func ByName(name string) (Spec, error) {
	for _, s := range catalog() {
		if s.Name == name {
			return s.clone(), nil
		}
	}
	return Spec{}, fmt.Errorf("models: unknown model %q", name)
}

// DatasetFor generates the spec's synthetic workload, standardized with
// training statistics.
func DatasetFor(s Spec, seed uint64) (train, test *data.Dataset) {
	switch s.Dataset {
	case "mnist-like":
		train, test = data.MNISTLike(seed)
	case "cifar10-like":
		train, test = data.CIFAR10Like(seed)
	case "cifar100-like":
		train, test = data.CIFAR100Like(seed)
	default:
		panic("models: unknown dataset " + s.Dataset)
	}
	nz := data.FitNormalizer(train)
	nz.Apply(train)
	nz.Apply(test)
	return train, test
}

// Pretrain runs centralized training of the spec's model on train for the
// given number of mini-batch steps and returns the resulting weights. The
// transfer-learning experiment uses it to produce the "pre-trained on the
// upstream task, feature extraction done" starting point the paper's
// fine-tuning stage begins from.
func Pretrain(s Spec, train *data.Dataset, steps, batch int, seed uint64) []float64 {
	rng := tensor.NewRNG(seed)
	net := s.Build(rng.Split())
	o := s.Optimizer()
	sampler := data.NewSampler(train, rng.Split())
	for i := 0; i < steps; i++ {
		net.LossGradBatch(sampler.Sample(batch))
		o.Step(net.Params(), net.Grads())
	}
	return tensor.Clone(net.Params())
}

// WithInit wraps a builder so every replica starts from the given weights
// (used to begin runs from a pre-trained model).
func WithInit(b core.ModelBuilder, w []float64) core.ModelBuilder {
	return func(rng *tensor.RNG) *nn.Network {
		net := b(rng)
		net.SetParams(w)
		return net
	}
}
