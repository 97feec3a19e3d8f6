// Package nn is a from-scratch neural-network training stack: layers with
// explicit backpropagation, softmax cross-entropy loss, and networks whose
// parameters live in a single contiguous flat vector.
//
// The flat-parameter design is what the FDA protocol needs: worker drift
// u = w − w_t0, model variance, sketching, and model AllReduce are all
// plain vector operations over Network.Params() with no per-layer
// marshalling. Layers receive sub-slices of the flat vector at bind time
// and view them as matrices in place.
//
// The stack is batch-major: an activation is n samples stored back to
// back, and every layer takes and returns one. Network cuts a mini-batch
// into micro-batches of at most eight samples — as many as keep one
// micro-batch's activations no larger than the parameters, see
// microBatchFor — and runs each through the whole stack, forward then
// backward, so a weight matrix is streamed once per micro-batch instead
// of once per sample (Dense reaches the GEMM-shaped tensor.MatVec /
// AddOuter / MatTVec) while the activation caches of one micro-batch stay
// cache-resident and small beside the model. The arithmetic is
// per-sample arithmetic all the same — the rule every layer keeps is
// *sample order*: each parameter-gradient element receives its samples'
// contributions in sample order, the one stateful layer (Dropout, whose
// mask stream lives outside the parameter vector) consumes its samples
// in sample order, and every reduction keeps the association of its
// scalar loop. A mini-batch therefore yields the same bits at any
// micro-batch size, n = 1 included, which is what the tests compare
// against. Layers grow their buffers to the largest n they have seen and
// never again, so a steady-state training step performs zero heap
// allocations.
package nn

import (
	"repro/internal/tensor"
)

// Layer is one differentiable stage of a network.
//
// Forward and Backward are batch-major: x holds n = len(x)/InDim()
// samples back to back and the result holds n outputs (n = 1 is
// inference on one input; there is no per-sample form). Ownership: the
// caller keeps x unchanged until the matching Backward has returned —
// layers cache the slice, not a copy; the returned slices are the
// layer's own buffers, valid until its next Forward (outputs) or
// Backward (input gradients). Backward must directly follow the Forward
// whose cached activations it consumes, with the same n.
type Layer interface {
	// InDim and OutDim report the per-sample activation vector sizes.
	InDim() int
	OutDim() int
	// ParamCount reports how many scalars of the flat parameter vector
	// this layer owns.
	ParamCount() int
	// Bind attaches the layer to its slice of the network's flat parameter
	// and gradient vectors. Both slices have length ParamCount.
	Bind(params, grads []float64)
	// Init writes initial weights into the bound parameter slice.
	Init(rng *tensor.RNG)
	// Forward computes the layer outputs for the samples in x. When train
	// is false, stochastic layers (dropout) act as identity×expectation.
	Forward(x []float64, train bool) []float64
	// Backward consumes ∂L/∂output for the same samples, adds each
	// sample's parameter gradient into the bound gradient slice in sample
	// order, and returns ∂L/∂input. The network's first layer is called
	// with needInput false: nothing reads its input gradient, so a layer
	// that pays for one may skip it and return nil.
	Backward(gradOut []float64, needInput bool) []float64
}

// grow returns buf with length n, reallocating only when n exceeds
// every length the buffer has had: layer buffers reach the largest
// micro-batch once and are reused from then on. Contents are not kept.
// It is the one place the //fda:noalloc layer bodies may allocate, and
// stays out of line so that fdavet holds everything around it to zero.
//
//go:noinline
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Shape describes a (height, width, channels) activation volume for
// spatial layers. Dense layers treat activations as flat vectors.
type Shape struct {
	H, W, C int
}

// Size returns the flattened length of the volume.
func (s Shape) Size() int { return s.H * s.W * s.C }

// The activation layers are element-wise, so a batch is just a longer
// vector: they run over all n·dim elements at once and cache their
// forward output for the backward pass.

// ReLU is the rectified-linear activation layer. It caches only its
// output: out > 0 exactly when the input was > 0, so the backward mask
// needs no separate input copy (tensor.ReLU, tensor.ReLUGrad).
type ReLU struct {
	dim int
	out []float64
	gin []float64
}

// NewReLU returns a ReLU over dim-length activations.
func NewReLU(dim int) *ReLU { return &ReLU{dim: dim} }

func (l *ReLU) InDim() int          { return l.dim }
func (l *ReLU) OutDim() int         { return l.dim }
func (l *ReLU) ParamCount() int     { return 0 }
func (l *ReLU) Bind(_, _ []float64) {}
func (l *ReLU) Init(_ *tensor.RNG)  {}

//fda:noalloc
func (l *ReLU) Forward(x []float64, _ bool) []float64 {
	l.out = grow(l.out, len(x))
	tensor.ReLU(l.out, x)
	return l.out
}

//fda:noalloc
func (l *ReLU) Backward(gradOut []float64, _ bool) []float64 {
	l.gin = grow(l.gin, len(l.out))
	tensor.ReLUGrad(l.gin, gradOut, l.out)
	return l.gin
}
