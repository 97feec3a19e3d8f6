package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"

	"repro/internal/data"
)

// Network is a feed-forward stack of layers whose parameters live in one
// contiguous flat vector, the representation required by the FDA protocol
// (drift, variance and AllReduce are all flat-vector operations).
type Network struct {
	layers []Layer
	params []float64
	grads  []float64
	// micro is how many samples go through the stack at once (see
	// microBatchFor). x packs one micro-batch's inputs back to back for
	// the first layer; probs holds its softmax rows, which become
	// dL/dlogits. Both are sized for micro samples at construction and
	// shared by LossGradBatch and CountCorrect, so none of them
	// allocates.
	micro    int
	x, probs []float64
}

// maxMicroBatch is the largest micro-batch: eight samples fill
// tensor.MatVec's register tile, and past that a Dense layer's sweep
// over its weights is already amortized eightfold.
const maxMicroBatch = 8

// microBatchFor chooses a network's micro-batch: as many samples, up to
// maxMicroBatch, as keep one micro-batch's activations (each layer's
// inputs' gradient and its outputs, InDim+OutDim per sample) no larger
// than the parameters. Batching exists to stream weights once per
// micro-batch instead of once per sample, and costs a cached activation
// per extra sample: a dense stack, whose weights dwarf its activations,
// gets the full eight; a convolutional trunk, whose activations dwarf
// its weights and whose layers work sample by sample anyway, stays near
// one, so neither its cache footprint nor a process's resident set grows
// by more than a fraction of the model vectors every worker already
// holds. The mini-batch size plays no part.
func microBatchFor(layers []Layer, params int) int {
	act := 0
	for _, l := range layers {
		act += l.InDim() + l.OutDim()
	}
	return max(1, min(maxMicroBatch, params/act))
}

// New wires layers into a network, allocates the flat parameter and
// gradient vectors, binds each layer's slice, and initializes weights
// using rng. It panics if consecutive layer dimensions do not match.
func New(rng *tensor.RNG, layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: network with no layers")
	}
	total := 0
	for i, l := range layers {
		if i > 0 && layers[i-1].OutDim() != l.InDim() {
			panic(fmt.Sprintf("nn: layer %d expects input %d but previous output is %d",
				i, l.InDim(), layers[i-1].OutDim()))
		}
		total += l.ParamCount()
	}
	n := &Network{
		layers: layers,
		params: make([]float64, total),
		grads:  make([]float64, total),
	}
	off := 0
	for _, l := range layers {
		c := l.ParamCount()
		l.Bind(n.params[off:off+c], n.grads[off:off+c])
		l.Init(rng)
		off += c
	}
	n.micro = microBatchFor(layers, total)
	n.x = make([]float64, n.micro*n.InDim())
	n.probs = make([]float64, n.micro*n.OutDim())
	return n
}

// stochastic is implemented by layers that consume a private random
// stream at training time (today: Dropout). Checkpointing walks it so a
// restored replica replays the exact masks an uninterrupted run would
// have drawn.
type stochastic interface {
	RNGState() uint64
	SetRNGState(uint64)
}

// RNGStates returns the stream positions of the network's stochastic
// layers, in layer order. Deterministic networks return an empty slice.
func (n *Network) RNGStates() []uint64 {
	var states []uint64
	for _, l := range n.layers {
		if s, ok := l.(stochastic); ok {
			states = append(states, s.RNGState())
		}
	}
	return states
}

// SetRNGStates restores stream positions captured by RNGStates. It panics
// if the count does not match the network's stochastic layers — that
// means the checkpoint belongs to a different architecture.
func (n *Network) SetRNGStates(states []uint64) {
	i := 0
	for _, l := range n.layers {
		if s, ok := l.(stochastic); ok {
			if i >= len(states) {
				panic("nn: too few RNG states for network")
			}
			s.SetRNGState(states[i])
			i++
		}
	}
	if i != len(states) {
		panic("nn: too many RNG states for network")
	}
}

// NumParams returns the model dimension d.
func (n *Network) NumParams() int { return len(n.params) }

// Params returns the live flat parameter vector. Mutating it (for example
// overwriting it with an AllReduce average) changes the model in place.
func (n *Network) Params() []float64 { return n.params }

// Grads returns the live flat gradient accumulation vector.
func (n *Network) Grads() []float64 { return n.grads }

// ZeroGrads clears the gradient accumulator.
func (n *Network) ZeroGrads() { tensor.Zero(n.grads) }

// SetParams copies w into the network's parameter vector.
func (n *Network) SetParams(w []float64) {
	if len(w) != len(n.params) {
		panic("nn: SetParams dimension mismatch")
	}
	copy(n.params, w)
}

// InDim and OutDim report the network's activation interface.
func (n *Network) InDim() int  { return n.layers[0].InDim() }
func (n *Network) OutDim() int { return n.layers[len(n.layers)-1].OutDim() }

// Forward runs the network on the samples stored back to back in x (one
// input is the n = 1 case) and returns their logits, back to back. The
// returned slice is an internal buffer, valid until the next Forward.
//
//fda:noalloc
func (n *Network) Forward(x []float64, train bool) []float64 {
	a := x
	for _, l := range n.layers {
		a = l.Forward(a, train)
	}
	return a
}

// backward propagates dL/dlogits of the last Forward's samples through
// all layers, accumulating parameter gradients. Nothing reads the first
// layer's input gradient, so it is told not to compute one.
//
//fda:noalloc
func (n *Network) backward(gradOut []float64) {
	g := gradOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		g = n.layers[i].Backward(g, i > 0)
	}
}

// pack copies up to one micro-batch of samples back to back into the network's
// input buffer and returns the packed activation.
//
//fda:noalloc
func (n *Network) pack(xs [][]float64) []float64 {
	in := n.InDim()
	for s, x := range xs {
		if len(x) != in {
			panic("nn: sample dimension mismatch") //fda:allow(noalloc, constant-string boxing on the abort path only)
		}
		copy(n.x[s*in:(s+1)*in], x)
	}
	return n.x[:len(xs)*in]
}

// LossGradBatch runs forward+backward over a mini-batch with softmax
// cross-entropy loss, leaving the batch-mean gradient in Grads() and
// returning the mean loss.
// The mini-batch goes through the stack in micro-batches, samples in
// order, so loss and gradients carry the bits of a sample-at-a-time loop.
//
//fda:noalloc
func (n *Network) LossGradBatch(b data.Batch) float64 {
	if len(b.X) == 0 {
		panic("nn: empty batch") //fda:allow(noalloc, constant-string boxing on the abort path only)
	}
	n.ZeroGrads()
	out := n.OutDim()
	var loss float64
	for lo := 0; lo < len(b.X); lo += n.micro {
		hi := min(lo+n.micro, len(b.X))
		logits := n.Forward(n.pack(b.X[lo:hi]), true)
		g := n.probs[:len(logits)]
		for s, y := range b.Y[lo:hi] {
			loss += SoftmaxCrossEntropy(g[s*out:(s+1)*out], logits[s*out:(s+1)*out], y)
		}
		// g now holds softmax(logits) − onehot(y) = dL/dlogits per sample.
		n.backward(g)
	}
	inv := 1 / float64(len(b.X))
	tensor.Scale(n.grads, inv)
	return loss * inv
}

// Accuracy returns the top-1 accuracy over a dataset (dropout disabled).
func (n *Network) Accuracy(ds *data.Dataset) float64 {
	return float64(n.CountCorrect(ds, 0, ds.Len())) / float64(ds.Len())
}

// CountCorrect returns how many of the samples ds[lo:hi) the network
// classifies correctly (dropout disabled). The half-open range lets
// callers chunk a dataset across network replicas — one replica per
// goroutine, since Forward reuses internal buffers — and reduce the
// integer counts, which is order-independent and therefore bit-identical
// to a sequential scan.
func (n *Network) CountCorrect(ds *data.Dataset, lo, hi int) int {
	out := n.OutDim()
	correct := 0
	for ; lo < hi; lo += n.micro {
		end := min(lo+n.micro, hi)
		logits := n.Forward(n.pack(ds.X[lo:end]), false)
		for s, y := range ds.Y[lo:end] {
			if tensor.ArgMax(logits[s*out:(s+1)*out]) == y {
				correct++
			}
		}
	}
	return correct
}

// SoftmaxCrossEntropy computes the cross-entropy loss of logits against
// label y and writes dL/dlogits = softmax(logits) − onehot(y) into grad.
// grad must have the same length as logits.
func SoftmaxCrossEntropy(grad, logits []float64, y int) float64 {
	if len(grad) != len(logits) {
		panic("nn: SoftmaxCrossEntropy buffer mismatch")
	}
	if y < 0 || y >= len(logits) {
		panic("nn: label out of range")
	}
	// Stable softmax.
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		grad[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range grad {
		grad[i] *= inv
	}
	loss := -math.Log(grad[y] + 1e-300)
	grad[y] -= 1
	return loss
}
