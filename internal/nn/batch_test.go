package nn_test

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// refLossGrad is the sample-at-a-time loop LossGradBatch was before the
// stack became batch-major, kept here as the reference: one sample through
// the whole network, forward then backward, before the next one starts.
// Every layer sees n = 1, so no tile, no grouped AXPY and no micro-batch
// boundary is involved — only per-sample arithmetic in sample order.
func refLossGrad(n *nn.Network, b data.Batch) float64 {
	n.ZeroGrads()
	probs := make([]float64, n.OutDim())
	var loss float64
	for i := range b.X {
		logits := n.Forward(b.X[i], true)
		loss += nn.SoftmaxCrossEntropy(probs, logits, b.Y[i])
		n.Backward(probs)
	}
	inv := 1 / float64(len(b.X))
	g := n.Grads()
	for i := range g {
		g[i] *= inv
	}
	return loss * inv
}

// randomBatch draws size standard-normal inputs with uniform labels.
func randomBatch(rng *tensor.RNG, dim, classes, size int) data.Batch {
	b := data.Batch{X: make([][]float64, size), Y: make([]int, size)}
	for i := range b.X {
		b.X[i] = make([]float64, dim)
		tensor.Normal(rng, b.X[i], 0, 1)
		b.Y[i] = rng.Intn(classes)
	}
	return b
}

// mixedNet uses every layer kind the zoo builds — two convolutions (the
// first with its input gradient skipped, the second with it computed),
// max pooling, global average pooling, Dropout and ReLUs for exact zeros —
// under a dense head wide enough that the network batches by the full
// eight, so its convolutions see micro-batches no zoo model gives them.
func mixedNet(rng *tensor.RNG) *nn.Network {
	in := nn.Shape{H: 6, W: 6, C: 2}
	conv1 := nn.NewConv2D(in, 3, 3, nn.HeNormalInit)
	pool := nn.NewMaxPool2D(conv1.OutShape(), 2)
	conv2 := nn.NewConv2D(pool.OutShape(), 4, 3, nn.GlorotUniformInit)
	gap := nn.NewGlobalAvgPool(conv2.OutShape())
	return nn.New(rng,
		conv1, nn.NewReLU(conv1.OutDim()), pool,
		conv2, nn.NewReLU(conv2.OutDim()), gap,
		nn.NewDropout(gap.OutDim(), 0.2, rng.Split()),
		nn.NewDense(gap.OutDim(), 160, nn.HeNormalInit), nn.NewReLU(160),
		nn.NewDense(160, 96, nn.GlorotUniformInit), nn.NewReLU(96),
		nn.NewDense(96, 7, nn.HeNormalInit), nn.NewReLU(7),
		nn.NewDense(7, 4, nn.GlorotUniformInit),
	)
}

// batchSizes puts a tail on both sides of the largest micro-batch and of
// every unroll width below it (the smaller micro-batches of the
// convolutional models divide some and not others).
var batchSizes = []int{1, 3, 7, nn.MaxMicroBatch, nn.MaxMicroBatch + 1, 32, 33}

// mixedNetDigest is the CRC-64 of every loss and gradient bit mixedNet
// produces over batchSizes (seed 2024, an SGD step between batches). It
// was captured on the build just before the layers no model used were
// deleted, and that same network gives the same value on the last commit
// whose layers were per-sample; default and purego builds agree on it.
const mixedNetDigest uint64 = 0xc7d29df09b503625

// TestBatchedLossGradMatchesPerSampleLoop: for every zoo model and for
// mixedNet, LossGradBatch yields the loss and every gradient bit of the
// per-sample loop, batch after batch on one evolving model (Dropout's mask
// stream and the weights carry over), with exact zeros in the
// back-propagated gradients (every model has ReLUs, so the zero-skip of
// the Dense kernels is on the path).
func TestBatchedLossGradMatchesPerSampleLoop(t *testing.T) {
	type arch struct {
		name  string
		build func(*tensor.RNG) *nn.Network
	}
	archs := []arch{{"mixed", mixedNet}}
	for _, s := range models.Catalog() {
		archs = append(archs, arch{s.Name, s.Build})
	}
	micro := map[string]int{}
	for _, a := range archs {
		got, ref := a.build(tensor.NewRNG(2024)), a.build(tensor.NewRNG(2024))
		micro[a.name] = got.MicroBatch()
		rng := tensor.NewRNG(7)
		zeros := 0
		for _, size := range batchSizes {
			b := randomBatch(rng, got.InDim(), got.OutDim(), size)
			gl, rl := got.LossGradBatch(b), refLossGrad(ref, b)
			if math.Float64bits(gl) != math.Float64bits(rl) {
				t.Fatalf("%s batch %d: loss %v, per-sample loop %v", a.name, size, gl, rl)
			}
			gg, rg := got.Grads(), ref.Grads()
			for i := range rg {
				if math.Float64bits(gg[i]) != math.Float64bits(rg[i]) {
					t.Fatalf("%s batch %d: grad[%d] = %v, per-sample loop %v", a.name, size, i, gg[i], rg[i])
				}
				if rg[i] == 0 {
					zeros++
				}
			}
			tensor.AXPY(-0.05, gg, got.Params())
			tensor.AXPY(-0.05, rg, ref.Params())
		}
		if zeros == 0 {
			t.Fatalf("%s: no exact zero in any gradient; the zero-skip path was not exercised", a.name)
		}
	}
	// What the comparison covered: the dense stacks run full micro-batches
	// (MatVec's tile, grouped AddOuter/MatTVec), the smallest CNN one
	// sample at a time, the rest in between.
	if micro["mixed"] != nn.MaxMicroBatch || micro["convnexts"] != nn.MaxMicroBatch || micro["lenet5s"] != 1 {
		t.Fatalf("micro-batches %v: want mixed and convnexts at %d, lenet5s at 1", micro, nn.MaxMicroBatch)
	}
}

// TestBatchedLossGradMatchesPinnedPerSampleBuild compares builds, where
// the test above compares paths inside one: mixedNet's losses and
// gradients against the digest the per-sample stack produced.
func TestBatchedLossGradMatchesPinnedPerSampleBuild(t *testing.T) {
	rng := tensor.NewRNG(2024)
	n := mixedNet(rng)
	tab := crc64.MakeTable(crc64.ECMA)
	var digest uint64
	var buf [8]byte
	fold := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		digest = crc64.Update(digest, tab, buf[:])
	}
	for _, size := range []int{1, 3, 7, 8, 9, 32, 33} {
		b := randomBatch(rng, n.InDim(), 4, size)
		fold(n.LossGradBatch(b))
		for _, g := range n.Grads() {
			fold(g)
		}
		tensor.AXPY(-0.05, n.Grads(), n.Params())
	}
	if digest != mixedNetDigest {
		t.Fatalf("losses and gradients digest %#016x, per-sample build %#016x", digest, mixedNetDigest)
	}
}

// TestDropoutMaskStreamSurvivesBatching: a batched pass draws its masks
// in the order of the per-sample passes (TestBatchedLossGrad… holds the
// DenseNets to that), and the stream position captured between two
// batches — mid-sequence, after a batch that is not a multiple of the
// micro-batch — restores into a fresh replica that then produces the
// second batch's loss and gradients exactly.
func TestDropoutMaskStreamSurvivesBatching(t *testing.T) {
	spec := models.DenseNet121S()
	run := spec.Build(tensor.NewRNG(5))
	rng := tensor.NewRNG(6)
	first := randomBatch(rng, run.InDim(), run.OutDim(), 13)
	second := randomBatch(rng, run.InDim(), run.OutDim(), 11)

	before := run.RNGStates()
	run.LossGradBatch(first)
	mid := run.RNGStates()
	if len(mid) != 1 || mid[0] == before[0] {
		t.Fatalf("mask stream did not advance over a training batch: %v -> %v", before, mid)
	}
	wantLoss := run.LossGradBatch(second)
	want := tensor.Clone(run.Grads())

	resumed := spec.Build(tensor.NewRNG(99)) // different weights and stream until restored
	resumed.SetParams(run.Params())
	resumed.SetRNGStates(mid)
	if got := resumed.LossGradBatch(second); math.Float64bits(got) != math.Float64bits(wantLoss) {
		t.Fatalf("resumed loss %v, uninterrupted %v", got, wantLoss)
	}
	for i, g := range resumed.Grads() {
		if math.Float64bits(g) != math.Float64bits(want[i]) {
			t.Fatalf("resumed grad[%d] = %v, uninterrupted %v", i, g, want[i])
		}
	}
}

// TestEvalMatchesPerSampleForward: CountCorrect, which also runs
// in micro-batches, agrees with one Forward per sample on ranges that
// start and end off the micro-batch grid.
func TestEvalMatchesPerSampleForward(t *testing.T) {
	spec := models.ConvNeXtS()
	_, test := models.DatasetFor(spec, 3)
	n := spec.Build(tensor.NewRNG(3))
	m := n.MicroBatch()
	hit := make([]bool, test.Len())
	for i, x := range test.X {
		hit[i] = tensor.ArgMax(n.Forward(x, false)) == test.Y[i]
	}
	for _, r := range [][2]int{{0, test.Len()}, {3, 3}, {5, 6}, {1, 2*m + 4}, {m, 3 * m}} {
		want := 0
		for _, h := range hit[r[0]:r[1]] {
			if h {
				want++
			}
		}
		if got := n.CountCorrect(test, r[0], r[1]); got != want {
			t.Fatalf("CountCorrect[%d:%d) = %d, per-sample %d", r[0], r[1], got, want)
		}
	}
}
