package ndsnn

import (
	"ndsnn/internal/infer"
	"ndsnn/internal/layers"
	"ndsnn/internal/quant"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// EvaluateQuantized measures test accuracy with the model's prunable
// weights fake-quantized to the given bit width (symmetric uniform,
// per-tensor scale, zeros preserved) — the deployed-precision accuracy for
// the Sec. III-D platforms (Loihi 8-bit, HICANN 4-bit, FPGA up to 16-bit).
// Evaluation runs through the event-driven engine on up to n test samples
// (0 = all) and, alongside accuracy, returns the engine's measured
// efficiency: synaptic operations per sample (which drop relative to the
// FP32 engine, because weights that quantize to exactly zero are dead
// synapses the engine never touches) and the dense-MAC bound per sample.
// The model's weights are restored afterwards. For true integer execution
// rather than fake quantization, see CompileQuantizedInference.
func (m *Model) EvaluateQuantized(bits, n int) (acc, synOpsPerSample, denseMACsPerSample float64, err error) {
	params := layers.PrunableParams(m.net.Params())
	snapshot := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		snapshot[i] = p.W.Clone()
	}
	defer func() {
		for i, p := range params {
			p.W.CopyFrom(snapshot[i])
			// The cached CSR encoding was (re)built against the
			// quantized values; drop them so the training path re-encodes
			// from the restored weights.
			p.InvalidateCSR()
		}
	}()
	if _, err := quant.QuantizeParams(params, bits); err != nil {
		return 0, 0, 0, err
	}
	eng, err := infer.Compile(m.net)
	if err != nil {
		return 0, 0, 0, err
	}
	e := &InferenceEngine{eng: eng, ds: m.dataset}
	acc, synOpsPerSample, denseMACsPerSample = e.EvaluateTest(n)
	return acc, synOpsPerSample, denseMACsPerSample, nil
}

// CompileQuantizedInference compiles the trained model into the integer
// event-driven engine: spike-fed conv/linear stages store packed QCSR
// weights (int8 levels with per-output-channel power-of-two scales, two
// levels per byte at 4 bits) and accumulate events in int32, leaving
// integer only at the per-stage requantization affine before the LIF
// threshold compare. Analog-input stages (the direct-encoding first conv,
// stages after average pooling) stay float32; QuantInfo reports the
// coverage and the packed-weight memory. At ≤8 bits the engine's outputs
// are bit-identical to the float engine running on the dequantized weights.
func (m *Model) CompileQuantizedInference(bits int) (*InferenceEngine, error) {
	eng, err := infer.CompileQuantized(m.net, bits)
	if err != nil {
		return nil, err
	}
	return &InferenceEngine{eng: eng, ds: m.dataset}, nil
}

// QuantizedInferenceConfig selects the integer engine's precisions for
// CompileQuantizedInferenceConfig.
type QuantizedInferenceConfig struct {
	// WeightBits is the QCSR weight precision, 2–16.
	WeightBits int
	// ActivationBits, when nonzero (2–16), also quantizes activations onto
	// per-tensor power-of-two grids: the network input passes an explicit
	// requant boundary, grid-fed conv/linear stages accumulate graded
	// integer levels, and power-of-two average pools run as int32 sum +
	// shift. 0 keeps the mixed engine (weights only).
	ActivationBits int
	// FullInteger makes "fully integer" a compile-time guarantee: the
	// compile fails, naming the offending stages, if any compute stage
	// would still run float synaptic arithmetic. Implies ActivationBits=8
	// when unset. Check QuantInfo.AnalogStages == 0 for the runtime view of
	// the same claim.
	FullInteger bool
}

// CompileQuantizedInferenceConfig compiles the trained model into the
// integer engine under an explicit precision config — the fully-integer
// deployment path when ActivationBits/FullInteger are set. With only
// WeightBits it is exactly CompileQuantizedInference.
func (m *Model) CompileQuantizedInferenceConfig(cfg QuantizedInferenceConfig) (*InferenceEngine, error) {
	eng, err := infer.CompileQuantizedConfig(m.net, infer.QuantConfig{
		WeightBits:     cfg.WeightBits,
		ActivationBits: cfg.ActivationBits,
		FullInteger:    cfg.FullInteger,
	})
	if err != nil {
		return nil, err
	}
	return &InferenceEngine{eng: eng, ds: m.dataset}, nil
}

// PlatformBits maps the Sec. III-D platform names (see Platforms) to their
// weight precisions. ok is false for unknown platform names — callers
// should surface the name rather than feed a zero width downstream.
func PlatformBits(platform string) (bits int, ok bool) {
	for _, p := range sparse.Platforms {
		if p.Name == platform {
			return p.WeightBits, true
		}
	}
	return 0, false
}
