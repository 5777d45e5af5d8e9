package ndsnn

import (
	"ndsnn/internal/data"
	"ndsnn/internal/infer"
	"ndsnn/internal/tensor"
)

// InferenceEngine is a compiled event-driven execution of a trained model:
// only active synapses are stored and only nonzero activations propagate,
// the execution model of the neuromorphic platforms the paper targets. Its
// outputs match the training path's eval-mode forward exactly.
type InferenceEngine struct {
	eng *infer.Engine
	ds  *data.Dataset
}

// CompileInference builds the event-driven engine from the trained model.
func (m *Model) CompileInference() (*InferenceEngine, error) {
	eng, err := infer.Compile(m.net)
	if err != nil {
		return nil, err
	}
	return &InferenceEngine{eng: eng, ds: m.dataset}, nil
}

// Classify returns the predicted class of one sample image laid out
// [C,H,W] (use TestSample to fetch dataset samples).
func (e *InferenceEngine) Classify(sample []float32, c, h, w int) int {
	return e.eng.Classify(tensor.FromSlice(sample, c, h, w))
}

// TestSample returns test image i and its label from the model's dataset.
func (e *InferenceEngine) TestSample(i int) (img []float32, c, h, w, label int) {
	cfg := e.ds.Config
	pix := cfg.C * cfg.H * cfg.W
	return e.ds.Test.Images[i*pix : (i+1)*pix], cfg.C, cfg.H, cfg.W, e.ds.Test.Labels[i]
}

// TestLen returns the number of test samples available.
func (e *InferenceEngine) TestLen() int { return e.ds.Test.N() }

// QuantInfo summarizes an integer engine's storage and coverage: which
// precisions it runs at (weight bits, and activation bits when the input is
// grid-quantized), how many compute stages execute in integer and how many
// still run float synaptic arithmetic (AnalogStages — zero is the checkable
// "fully integer" claim), the stored-synapse census (including synapses
// whose level rounded to zero — dead weight the integer stages skip), and
// the packed value-storage bytes against the float32 engine's 4 bytes per
// synapse.
type QuantInfo struct {
	Bits                           int
	ActivationBits                 int
	FullInteger                    bool
	QuantizedStages, ComputeStages int
	AnalogStages                   int
	StoredSynapses, ZeroQuantized  int64
	PackedValueBytes               int64
	FloatValueBytes                int64
}

// QuantInfo returns the integer-storage summary for engines built by
// CompileQuantizedInference, or nil for float engines.
func (e *InferenceEngine) QuantInfo() *QuantInfo {
	s := e.eng.QuantStats()
	if s == nil {
		return nil
	}
	return &QuantInfo{
		Bits:             s.Bits,
		ActivationBits:   s.ActivationBits,
		FullInteger:      s.FullInteger,
		QuantizedStages:  s.QuantizedStages,
		ComputeStages:    s.ComputeStages,
		AnalogStages:     s.AnalogStages,
		StoredSynapses:   s.StoredSynapses,
		ZeroQuantized:    s.ZeroQuantized,
		PackedValueBytes: s.PackedValueBytes,
		FloatValueBytes:  s.FloatValueBytes,
	}
}

// StageDTypeInfo is one row of an engine's activation dtype table, rendered
// for display: the stage's pipeline name and kind, its input and output
// edge dtypes ("f32", "spike", "int10·0.0625"), and whether its synaptic
// arithmetic runs on integer levels.
type StageDTypeInfo struct {
	Name, Kind string
	In, Out    string
	Integer    bool
}

// StageDTypes returns the engine's per-stage activation dtype table in
// pipeline order (rows nested inside residual blocks are name-prefixed with
// the block's entry). Works on float and integer engines alike; it is how
// mixed- versus fully-integer deployments are told apart edge by edge.
func (e *InferenceEngine) StageDTypes() []StageDTypeInfo {
	rows := e.eng.StageDTypes()
	out := make([]StageDTypeInfo, len(rows))
	for i, r := range rows {
		out[i] = StageDTypeInfo{
			Name: r.Name, Kind: r.Kind,
			In: r.In.String(), Out: r.Out.String(),
			Integer: r.Integer,
		}
	}
	return out
}

// EvaluateTest classifies up to n test samples (0 = all) and returns
// accuracy plus the measured efficiency: synaptic operations per sample and
// the dense-MAC bound a non-event implementation would pay.
func (e *InferenceEngine) EvaluateTest(n int) (acc float64, synOpsPerSample float64, denseMACsPerSample float64) {
	if n <= 0 || n > e.ds.Test.N() {
		n = e.ds.Test.N()
	}
	cfg := e.ds.Config
	pix := cfg.C * cfg.H * cfg.W
	e.eng.ResetStats()
	correct := 0
	for i := 0; i < n; i++ {
		sample := tensor.FromSlice(e.ds.Test.Images[i*pix:(i+1)*pix], cfg.C, cfg.H, cfg.W)
		if e.eng.Classify(sample) == e.ds.Test.Labels[i] {
			correct++
		}
	}
	synOps := float64(e.eng.SynOps()) / float64(n)
	dense := float64(e.eng.DenseMACsPerTimestep() * int64(e.eng.T))
	return float64(correct) / float64(n), synOps, dense
}
