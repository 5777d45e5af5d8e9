package layers

import (
	"math"

	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

// KaimingNormal fills t with N(0, sqrt(2/fanIn)) values, the standard
// initialization for layers followed by ReLU-like (spiking) nonlinearities.
func KaimingNormal(t *tensor.Tensor, fanIn int, r *rng.RNG) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = r.NormFloat32() * std
	}
}
