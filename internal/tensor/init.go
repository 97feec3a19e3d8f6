package tensor

import "math"

// GlorotUniform fills w with samples from U(-a, a) where
// a = sqrt(6 / (fanIn + fanOut)). This is the initialization used by the
// paper for LeNet-5 and VGG16* (Glorot & Bengio 2010).
func GlorotUniform(rng *RNG, w []float64, fanIn, fanOut int) {
	if fanIn <= 0 || fanOut <= 0 {
		panic("tensor: GlorotUniform with non-positive fan")
	}
	a := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range w {
		w[i] = (2*rng.Float64() - 1) * a
	}
}

// HeNormal fills w with samples from N(0, 2/fanIn), the initialization the
// paper uses for the DenseNet models (He et al. 2015).
func HeNormal(rng *RNG, w []float64, fanIn int) {
	if fanIn <= 0 {
		panic("tensor: HeNormal with non-positive fan")
	}
	std := math.Sqrt(2 / float64(fanIn))
	for i := range w {
		w[i] = rng.NormFloat64() * std
	}
}

// Normal fills w with samples from N(mean, std^2).
func Normal(rng *RNG, w []float64, mean, std float64) {
	for i := range w {
		w[i] = mean + rng.NormFloat64()*std
	}
}
