package nn

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/tensor"
)

// batchLoss computes the mean loss of a batch without gradients, used as
// the reference function for finite differences. The batch goes through
// the stack as one n-sample activation, so the forward pass under test is
// the batched one.
func batchLoss(n *Network, b data.Batch) float64 {
	var x []float64
	for _, xi := range b.X {
		x = append(x, xi...)
	}
	logits := n.Forward(x, true)
	out := n.OutDim()
	probs := make([]float64, out)
	var loss float64
	for i, y := range b.Y {
		loss += SoftmaxCrossEntropy(probs, logits[i*out:(i+1)*out], y)
	}
	return loss / float64(len(b.X))
}

// gradCheck compares LossGradBatch's analytic gradient with central
// finite differences on every parameter, on a batch of one sample and on
// a batch of three.
func gradCheck(t *testing.T, n *Network, rng *tensor.RNG, tol float64) {
	t.Helper()
	for _, size := range []int{1, 3} {
		b := smallBatch(rng, n.InDim(), n.OutDim(), size)
		analytic := tensor.Clone(func() []float64 { n.LossGradBatch(b); return n.Grads() }())
		params := n.Params()
		const h = 1e-5
		for i := range params {
			orig := params[i]
			params[i] = orig + h
			lp := batchLoss(n, b)
			params[i] = orig - h
			lm := batchLoss(n, b)
			params[i] = orig
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-analytic[i]) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("batch of %d, param %d: analytic %v numeric %v", size, i, analytic[i], numeric)
			}
		}
	}
}

func smallBatch(rng *tensor.RNG, dim, classes, n int) data.Batch {
	b := data.Batch{X: make([][]float64, n), Y: make([]int, n)}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		tensor.Normal(rng, x, 0, 1)
		b.X[i] = x
		b.Y[i] = rng.Intn(classes)
	}
	return b
}

func TestDenseGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(1)
	n := New(rng,
		NewDense(6, 5, GlorotUniformInit),
		NewReLU(5),
		NewDense(5, 3, GlorotUniformInit),
	)
	gradCheck(t, n, rng, 1e-4)
}

func TestConvGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(3)
	in := Shape{H: 4, W: 4, C: 2}
	conv := NewConv2D(in, 3, 3, GlorotUniformInit)
	pool := NewMaxPool2D(conv.OutShape(), 2)
	n := New(rng,
		conv,
		NewReLU(conv.OutDim()),
		pool,
		NewDense(pool.OutDim(), 3, GlorotUniformInit),
	)
	gradCheck(t, n, rng, 1e-4)
}

func TestGlobalAvgPoolGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	in := Shape{H: 3, W: 3, C: 2}
	conv := NewConv2D(in, 4, 3, HeNormalInit)
	gap := NewGlobalAvgPool(conv.OutShape())
	n := New(rng,
		conv,
		NewReLU(conv.OutDim()),
		gap,
		NewDense(gap.OutDim(), 2, HeNormalInit),
	)
	gradCheck(t, n, rng, 1e-4)
}

func TestSoftmaxCrossEntropyProperties(t *testing.T) {
	logits := []float64{1, 2, 3}
	grad := make([]float64, 3)
	loss := SoftmaxCrossEntropy(grad, logits, 2)
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	// grad sums to zero (softmax sums to 1, minus one at the label).
	var sum float64
	for _, g := range grad {
		sum += g
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("grad sum = %v", sum)
	}
	// Gradient at label is negative, others positive.
	if grad[2] >= 0 || grad[0] <= 0 || grad[1] <= 0 {
		t.Fatalf("grad signs wrong: %v", grad)
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := []float64{1000, -1000, 0}
	grad := make([]float64, 3)
	loss := SoftmaxCrossEntropy(grad, logits, 0)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	loss = SoftmaxCrossEntropy(grad, logits, 1)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("worst-case loss not finite: %v", loss)
	}
}

func TestNetworkDimensionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched layers")
		}
	}()
	New(tensor.NewRNG(1), NewDense(4, 5, GlorotUniformInit), NewDense(6, 2, GlorotUniformInit))
}

func TestParamsAliasing(t *testing.T) {
	rng := tensor.NewRNG(5)
	n := New(rng, NewDense(3, 2, GlorotUniformInit))
	x := []float64{1, 2, 3}
	before := tensor.Clone(n.Forward(x, false))
	// Zeroing the flat vector must change the layer's behaviour: the layer
	// views, not copies, its parameters.
	tensor.Zero(n.Params())
	after := n.Forward(x, false)
	for i := range after {
		if after[i] != 0 {
			t.Fatalf("output %v after zeroing params; flat vector not aliased (before %v)", after, before)
		}
	}
}

func TestSetParamsRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(6)
	n := New(rng, NewDense(3, 2, GlorotUniformInit))
	w := make([]float64, n.NumParams())
	tensor.Normal(rng, w, 0, 1)
	n.SetParams(w)
	got := n.Params()
	for i := range w {
		if got[i] != w[i] {
			t.Fatal("SetParams did not copy")
		}
	}
	w[0] = 999
	if got[0] == 999 {
		t.Fatal("SetParams aliases caller slice")
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := tensor.NewRNG(8)
	l := NewDropout(1000, 0.5, rng)
	x := make([]float64, 1000)
	tensor.Fill(x, 1)
	// Eval mode: identity.
	out := l.Forward(x, false)
	for _, v := range out {
		if v != 1 {
			t.Fatalf("eval dropout changed activation: %v", v)
		}
	}
	// Train mode: roughly half dropped, survivors scaled by 2.
	out = l.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout kept %d of 1000 at rate 0.5", 1000-zeros)
	}
	if zeros+twos != 1000 {
		t.Fatal("dropout outputs inconsistent")
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := tensor.NewRNG(9)
	l := NewDropout(50, 0.3, rng)
	x := make([]float64, 50)
	tensor.Fill(x, 1)
	out := l.Forward(x, true)
	g := make([]float64, 50)
	tensor.Fill(g, 1)
	gin := l.Backward(g, true)
	for i := range out {
		if (out[i] == 0) != (gin[i] == 0) {
			t.Fatalf("gradient mask mismatch at %d", i)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D(Shape{H: 2, W: 2, C: 1}, 2)
	out := p.Forward([]float64{1, 5, 3, 2}, false)
	if len(out) != 1 || out[0] != 5 {
		t.Fatalf("maxpool out %v", out)
	}
	gin := p.Backward([]float64{7}, true)
	want := []float64{0, 7, 0, 0}
	for i := range want {
		if gin[i] != want[i] {
			t.Fatalf("maxpool gin %v", gin)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1-channel 3×3 conv initialized to the identity kernel must return
	// the input (interior and border, thanks to zero padding).
	in := Shape{H: 3, W: 3, C: 1}
	c := NewConv2D(in, 1, 3, GlorotUniformInit)
	n := New(tensor.NewRNG(1), c)
	tensor.Zero(n.Params())
	// kernel center = 1.
	n.Params()[4] = 1
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	out := n.Forward(x, false)
	for i := range x {
		if out[i] != x[i] {
			t.Fatalf("identity conv out %v", out)
		}
	}
}

func TestConv2DBias(t *testing.T) {
	in := Shape{H: 2, W: 2, C: 1}
	c := NewConv2D(in, 2, 1, GlorotUniformInit)
	n := New(tensor.NewRNG(1), c)
	tensor.Zero(n.Params())
	// weights zero, biases 3 and -1 (weights = outC*inC*1*1 = 2 scalars).
	n.Params()[2] = 3
	n.Params()[3] = -1
	out := n.Forward([]float64{9, 9, 9, 9}, false)
	want := []float64{3, 3, 3, 3, -1, -1, -1, -1}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("conv bias out %v", out)
		}
	}
}

func TestAccuracyAndLoss(t *testing.T) {
	rng := tensor.NewRNG(10)
	train, test := data.MNISTLike(1)
	_ = train
	n := New(rng,
		NewDense(test.Dim(), 32, GlorotUniformInit),
		NewReLU(32),
		NewDense(32, 10, GlorotUniformInit),
	)
	acc := n.Accuracy(test)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v", acc)
	}
	loss := n.LossGradBatch(data.Batch{X: test.X, Y: test.Y})
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("loss %v", loss)
	}
	// Untrained 10-class accuracy should be near chance.
	if acc > 0.5 {
		t.Fatalf("untrained accuracy suspiciously high: %v", acc)
	}
}

// A small end-to-end sanity check: plain SGD on the synthetic task should
// reach well-above-chance accuracy quickly.
func TestNetworkLearns(t *testing.T) {
	rng := tensor.NewRNG(11)
	train, test := data.MNISTLike(2)
	nz := data.FitNormalizer(train)
	nz.Apply(train)
	nz.Apply(test)
	n := New(rng,
		NewDense(train.Dim(), 32, GlorotUniformInit),
		NewReLU(32),
		NewDense(32, 10, GlorotUniformInit),
	)
	s := data.NewSampler(train, tensor.NewRNG(12))
	for step := 0; step < 300; step++ {
		n.LossGradBatch(s.Sample(32))
		tensor.AXPY(-0.05, n.Grads(), n.Params())
	}
	if acc := n.Accuracy(test); acc < 0.6 {
		t.Fatalf("SGD reached only %.3f accuracy", acc)
	}
}

// TestSkippedFirstInputGradientChangesNoParameterGradient: the backward
// pass tells layer 0 not to compute ∂L/∂input. Driving the same layers by
// hand with the input gradient requested everywhere must leave every
// parameter gradient bit where the network's own backward pass put it —
// for a Dense and a Conv2D in first position.
func TestSkippedFirstInputGradientChangesNoParameterGradient(t *testing.T) {
	in := Shape{H: 4, W: 4, C: 2}
	builds := map[string]func(*tensor.RNG) *Network{
		"dense": func(rng *tensor.RNG) *Network {
			return New(rng, NewDense(in.Size(), 6, HeNormalInit), NewReLU(6), NewDense(6, 3, HeNormalInit))
		},
		"conv": func(rng *tensor.RNG) *Network {
			c := NewConv2D(in, 3, 3, HeNormalInit)
			return New(rng, c, NewReLU(c.OutDim()), NewDense(c.OutDim(), 3, HeNormalInit))
		},
	}
	for name, build := range builds {
		skip, full := build(tensor.NewRNG(21)), build(tensor.NewRNG(21))
		b := smallBatch(tensor.NewRNG(22), in.Size(), 3, 5)
		skip.LossGradBatch(b)

		full.ZeroGrads()
		var x []float64
		for _, xi := range b.X {
			x = append(x, xi...)
		}
		logits := full.Forward(x, true)
		g := make([]float64, len(logits))
		for s, y := range b.Y {
			SoftmaxCrossEntropy(g[3*s:3*s+3], logits[3*s:3*s+3], y)
		}
		for i := len(full.layers) - 1; i >= 0; i-- {
			if g = full.layers[i].Backward(g, true); len(g) != 5*full.layers[i].InDim() {
				t.Fatalf("%s: layer %d returned an input gradient of %d elements", name, i, len(g))
			}
		}
		tensor.Scale(full.grads, 1/float64(len(b.X)))
		for i, want := range full.grads {
			if math.Float64bits(skip.grads[i]) != math.Float64bits(want) {
				t.Fatalf("%s: grad[%d] = %v with layer 0's input gradient skipped, %v with it computed", name, i, skip.grads[i], want)
			}
		}
	}
}

// TestLossGradBatchZeroAllocs: the first call at a batch size may grow
// layer buffers to the micro-batch; from then on — and for a smaller
// batch after a larger one, whose last micro-batch is a new, shorter
// length — LossGradBatch allocates nothing. Every layer kind is on the
// path, under a dense head wide enough that the network batches by the
// full eight.
func TestLossGradBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	rng := tensor.NewRNG(31)
	in := Shape{H: 4, W: 4, C: 2}
	first := NewConv2D(in, 2, 3, HeNormalInit)
	conv := NewConv2D(first.OutShape(), 4, 3, HeNormalInit)
	maxp := NewMaxPool2D(conv.OutShape(), 2)
	gap := NewGlobalAvgPool(maxp.OutShape())
	n := New(rng,
		first, NewReLU(first.OutDim()),
		conv, NewReLU(conv.OutDim()), maxp, gap,
		NewDropout(gap.OutDim(), 0.2, rng.Split()),
		NewDense(gap.OutDim(), 256, HeNormalInit), NewReLU(256),
		NewDense(256, 64, HeNormalInit), NewReLU(64),
		NewDense(64, 3, HeNormalInit),
	)
	if n.micro != maxMicroBatch {
		t.Fatalf("micro-batch %d, want the full %d", n.micro, maxMicroBatch)
	}
	large, small := smallBatch(rng, in.Size(), 3, 3*n.micro+5), smallBatch(rng, in.Size(), 3, 3)
	n.LossGradBatch(large)
	for name, b := range map[string]data.Batch{"steady state": large, "smaller batch after a larger one": small} {
		if avg := testing.AllocsPerRun(20, func() { n.LossGradBatch(b) }); avg != 0 {
			t.Fatalf("%s: LossGradBatch allocates %.1f times per call, want 0", name, avg)
		}
	}
}
