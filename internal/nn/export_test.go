package nn

// The external test package drives the stack the way LossGradBatch does.

// MaxMicroBatch is the micro-batch cap, for tests that straddle it.
const MaxMicroBatch = maxMicroBatch

// MicroBatch reports the micro-batch the network chose for itself.
func (n *Network) MicroBatch() int { return n.micro }

// Backward exposes the backward pass of the last Forward's samples.
func (n *Network) Backward(gradOut []float64) { n.backward(gradOut) }
