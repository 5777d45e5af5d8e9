// Package quant implements post-training weight quantization to the
// per-platform precisions of the paper's Section III-D (Loihi 8-bit,
// HICANN 4-bit, FPGA 4–16-bit): symmetric uniform quantization with a
// per-tensor scale, applied to the active weights of a trained model so the
// accuracy cost of each deployment target can be measured rather than
// assumed.
package quant

import (
	"fmt"
	"math"

	"ndsnn/internal/layers"
	"ndsnn/internal/tensor"
)

// Quantize rounds w to a signed b-bit grid with a symmetric per-tensor
// scale chosen from the max absolute value, returning the dequantized
// tensor (fake quantization) and the scale. Zeros stay exactly zero, so
// sparsity is preserved.
func Quantize(w *tensor.Tensor, bits int) (*tensor.Tensor, float32, error) {
	if bits < 2 || bits > 16 {
		return nil, 0, fmt.Errorf("quant: unsupported bit width %d", bits)
	}
	maxAbs := float32(0)
	for _, v := range w.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	out := tensor.New(w.Shape()...)
	if maxAbs == 0 {
		return out, 0, nil
	}
	levels := float32(int32(1)<<(bits-1)) - 1 // e.g. 127 for 8 bits
	scale := maxAbs / levels
	for i, v := range w.Data {
		q := float32(math.Round(float64(v / scale)))
		if q > levels {
			q = levels
		}
		if q < -levels {
			q = -levels
		}
		out.Data[i] = q * scale
	}
	return out, scale, nil
}

// QuantizeParams fake-quantizes every prunable parameter in place,
// returning per-tensor scales keyed by name. Masks and non-prunable
// parameters (BN affines, biases) are untouched, matching mixed-precision
// deployments that keep normalization in higher precision.
//
// Mutating W drops the parameter's cached CSR encoding: small weights
// round to exactly zero under quantization, and an encoding gathered from
// the pre-quantization values would keep paying synaptic work (and stale
// density) for those dead synapses. Callers restoring the weights afterwards
// must invalidate again (EvaluateQuantized does).
func QuantizeParams(params []*layers.Param, bits int) (map[string]float32, error) {
	scales := make(map[string]float32, len(params))
	for _, p := range params {
		if p.NoPrune {
			continue
		}
		q, scale, err := Quantize(p.W, bits)
		if err != nil {
			return nil, err
		}
		p.W.CopyFrom(q)
		p.InvalidateCSR()
		scales[p.Name] = scale
	}
	return scales, nil
}

// MaxError returns the largest absolute rounding error of quantizing w to
// bits, a cheap proxy for the expected accuracy impact.
func MaxError(w *tensor.Tensor, bits int) (float64, error) {
	q, _, err := Quantize(w, bits)
	if err != nil {
		return 0, err
	}
	maxErr := 0.0
	for i, v := range w.Data {
		e := math.Abs(float64(v - q.Data[i]))
		if e > maxErr {
			maxErr = e
		}
	}
	return maxErr, nil
}
