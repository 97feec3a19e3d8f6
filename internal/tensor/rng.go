// Package tensor provides the numeric kernels used throughout the FDA
// reproduction: dense vector and matrix operations over float64 slices, a
// small deterministic random number generator, and the weight
// initialization schemes used by the paper's models (Glorot uniform and He
// normal).
//
// All training code in this repository is deterministic given a seed; the
// RNG here is a splitmix64 generator, chosen because it is tiny, fast,
// stateless to fork, and reproducible across platforms (no dependence on
// math/rand's global state or version-dependent stream).
package tensor

import "math"

// RNG is a deterministic splitmix64 pseudo-random number generator.
//
// The zero value is a valid generator seeded with 0; use NewRNG to seed.
// RNG is not safe for concurrent use; fork per-goroutine generators with
// Split.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// State returns the generator's internal state. Together with SetState it
// lets checkpoints capture and replay the exact stream position, which is
// what makes a restored training session bit-identical to one that never
// stopped.
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds (or fast-forwards) the generator to a state previously
// obtained from State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output, which makes it suitable for giving
// each simulated worker its own stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the Box–Muller
// transform. Two uniforms are consumed per call; no state is cached so the
// stream stays easy to reason about when generators are split.
func (r *RNG) NormFloat64() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place.
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
