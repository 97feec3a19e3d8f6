package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestEveryLayerBatchMatchesSampleAtATime drives each layer kind directly,
// whatever micro-batch a network would choose: seven samples in one
// Forward/Backward against the same seven in single-sample calls on a
// twin layer. Outputs, input gradients and the accumulated
// parameter gradients must agree bit for bit, and Dropout must end at the
// same stream position, which it does only by consuming samples in order.
func TestEveryLayerBatchMatchesSampleAtATime(t *testing.T) {
	in := Shape{H: 4, W: 6, C: 2}
	kinds := map[string]func(*tensor.RNG) Layer{
		"Dense":         func(*tensor.RNG) Layer { return NewDense(in.Size(), 9, HeNormalInit) },
		"Conv2D":        func(*tensor.RNG) Layer { return NewConv2D(in, 3, 3, HeNormalInit) },
		"MaxPool2D":     func(*tensor.RNG) Layer { return NewMaxPool2D(in, 2) },
		"MaxPool2D/3":   func(*tensor.RNG) Layer { return NewMaxPool2D(Shape{H: 3, W: 6, C: 2}, 3) },
		"GlobalAvgPool": func(*tensor.RNG) Layer { return NewGlobalAvgPool(in) },
		"Dropout":       func(rng *tensor.RNG) Layer { return NewDropout(in.Size(), 0.3, rng) },
		"ReLU":          func(*tensor.RNG) Layer { return NewReLU(in.Size()) },
	}
	const n = 7
	same := func(name, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d elements, sample-at-a-time %d", name, what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s[%d] = %v, sample-at-a-time %v", name, what, i, got[i], want[i])
			}
		}
	}
	for name, build := range kinds {
		// bind gives a twin the same weights and, for Dropout, the same
		// stream; the gradient vector starts non-zero so accumulation
		// onto existing content is part of the comparison.
		bind := func() (Layer, []float64) {
			l := build(tensor.NewRNG(5))
			params, grads := make([]float64, l.ParamCount()), make([]float64, l.ParamCount())
			l.Bind(params, grads)
			l.Init(tensor.NewRNG(6))
			tensor.Fill(grads, 0.25)
			return l, grads
		}
		batched, bGrads := bind()
		single, sGrads := bind()
		rng := tensor.NewRNG(7)
		x := make([]float64, n*batched.InDim())
		tensor.Normal(rng, x, 0, 1)
		g := make([]float64, n*batched.OutDim())
		tensor.Normal(rng, g, 0, 1)
		for i := range g {
			if i%3 == 0 {
				g[i] = 0 // exact zeros: the Dense kernels skip them
			}
		}
		inDim, outDim := batched.InDim(), batched.OutDim()

		for pass := 0; pass < 2; pass++ { // twice: state carries over, buffers are reused
			out := batched.Forward(x, true)
			gin := batched.Backward(g, true)
			var wantOut, wantGin []float64
			for s := 0; s < n; s++ {
				wantOut = append(wantOut, single.Forward(x[s*inDim:(s+1)*inDim], true)...)
				wantGin = append(wantGin, single.Backward(g[s*outDim:(s+1)*outDim], true)...)
			}
			same(name, "output", out, wantOut)
			same(name, "input gradient", gin, wantGin)
			same(name, "parameter gradient", bGrads, sGrads)
		}
		same(name, "inference output", batched.Forward(x, false), func() (w []float64) {
			for s := 0; s < n; s++ {
				w = append(w, single.Forward(x[s*inDim:(s+1)*inDim], false)...)
			}
			return w
		}())
		if b, ok := batched.(stochastic); ok && b.RNGState() != single.(stochastic).RNGState() {
			t.Fatalf("%s: mask stream at %#x after batches, %#x sample at a time", name, b.RNGState(), single.(stochastic).RNGState())
		}
	}
}
