package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"ndsnn/internal/infer"
	"ndsnn/internal/models"
	"ndsnn/internal/snn"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// Quantized-inference benchmark: the measured deployment path for the
// paper's Sec. III-D platform table. An NDSNN-trained model is compiled
// three ways — the float32 event engine, and the integer QCSR engines at
// each platform's weight precision — and evaluated on the same test
// samples, so the JSON records measured SynOps, measured packed-weight
// bytes and the measured accuracy delta instead of the estimates the table
// previously carried. Recorded as BENCH_quant_infer.json.

// Int8AccuracyTolerance is the pinned acceptable int8-below-fp32 engine
// accuracy gap (one-sided — quantization noise flipping samples *towards*
// correct is not a failure). RunQuantInfer fails when int8 falls further
// below fp32, which is the CI smoke gate: a broken integer path collapses
// to chance accuracy and trips it, while the spike-flip noise of the
// reduced-scale models (deep threshold dynamics amplify ±½-step weight
// perturbations in either direction) stays well inside it.
const Int8AccuracyTolerance = 0.10

// QuantInferRow is the measurement for one platform precision.
type QuantInferRow struct {
	Platform string `json:"platform"`
	Bits     int    `json:"bits"`
	// Acc is the integer engine's test accuracy; AccDelta = Acc − fp32 acc.
	Acc      float64 `json:"acc"`
	AccDelta float64 `json:"acc_delta"`
	// SynOpsPerSample drops below the fp32 engine's when weights quantize
	// to exactly zero (dead synapses the integer stages skip).
	SynOpsPerSample float64 `json:"synops_per_sample"`
	// PackedValueBytes vs FloatValueBytes is the value-storage footprint of
	// the quantized stages (indices and scales are identical either way);
	// MemoryReduction is their ratio (4× at 8 bits, 8× at 4 bits).
	PackedValueBytes int64   `json:"packed_value_bytes"`
	FloatValueBytes  int64   `json:"float_value_bytes"`
	MemoryReduction  float64 `json:"memory_reduction"`
	// QuantizedStages / ComputeStages is the integer coverage (the direct-
	// encoding first conv stays float32).
	QuantizedStages int `json:"quantized_stages"`
	ComputeStages   int `json:"compute_stages"`
	// StoredSynapses / ZeroQuantized is the quantized-stage synapse census.
	StoredSynapses int64 `json:"stored_synapses"`
	ZeroQuantized  int64 `json:"zero_quantized"`
	// MaxAbsDiffVsDequantRef is the largest |integer − float-on-dequantized-
	// weights| over all evaluated output scores — the exactness check riding
	// along (0 at ≤8 bits; 16-bit sums can exceed float32's exact-integer
	// range on large layers).
	MaxAbsDiffVsDequantRef float64 `json:"max_abs_diff_vs_dequant_ref"`
}

// FullIntegerCell is the fully-integer pipeline measurement: a LeNet-style
// model (power-of-two avg-pool windows) compiled with 8-bit weights AND
// 8-bit activations under FullInteger, so every compute stage — the
// direct-encoding first conv, both average pools, the post-pool linears —
// runs integer synaptic arithmetic (AnalogStages must be 0, where the mixed
// engine leaves MixedAnalogStages of them float). Alongside the accuracy
// delta it records the activation-memory column: the dtype-aware
// per-request footprint of the inter-stage activation edges (1 bit per
// binary spike, ActivationBits per quantized level) against the same
// buffers at float32 width.
type FullIntegerCell struct {
	Arch           string `json:"arch"`
	WeightBits     int    `json:"weight_bits"`
	ActivationBits int    `json:"activation_bits"`
	// FP32 engine baseline for the same trained model.
	FP32Acc             float64 `json:"fp32_acc"`
	FP32SynOpsPerSample float64 `json:"fp32_synops_per_sample"`
	Acc                 float64 `json:"acc"`
	AccDelta            float64 `json:"acc_delta"`
	SynOpsPerSample     float64 `json:"synops_per_sample"`
	// Integer coverage: AnalogStages is 0 by the FullInteger compile
	// guarantee; MixedAnalogStages is what the weights-only engine leaves
	// analog on the same model.
	QuantizedStages   int `json:"quantized_stages"`
	ComputeStages     int `json:"compute_stages"`
	AnalogStages      int `json:"analog_stages"`
	MixedAnalogStages int `json:"mixed_analog_stages"`
	// Activation-memory column (per request, summed over inter-stage edges).
	ActivationPackedBytes     int64   `json:"activation_packed_bytes"`
	ActivationFloatBytes      int64   `json:"activation_float_bytes"`
	ActivationMemoryReduction float64 `json:"activation_memory_reduction"`
	// Equivalence gates on dequantized weights and grid-snapped inputs:
	// both must be exactly 0 (po2×po2 products, sums below 2^24).
	MaxAbsDiffVsMixed      float64 `json:"max_abs_diff_vs_mixed"`
	MaxAbsDiffVsDequantRef float64 `json:"max_abs_diff_vs_dequant_ref"`
}

// QuantInferReport is the recorded artifact.
type QuantInferReport struct {
	Arch     string  `json:"arch"`
	Sparsity float64 `json:"sparsity"`
	Samples  int     `json:"samples"`
	// FP32 engine baseline.
	FP32Acc             float64 `json:"fp32_acc"`
	FP32SynOpsPerSample float64 `json:"fp32_synops_per_sample"`
	// Int8AccTolerance echoes the pinned CI gate.
	Int8AccTolerance float64          `json:"int8_acc_tolerance"`
	Rows             []QuantInferRow  `json:"rows"`
	FullInteger      *FullIntegerCell `json:"full_integer"`
}

// RunQuantInfer trains one NDSNN model, compiles the float32 event engine
// and the integer QCSR engine at every Sec. III-D platform precision, and
// measures accuracy, SynOps and packed-weight bytes on the same test
// samples. It returns an error when the int8 accuracy diverges from fp32
// beyond Int8AccuracyTolerance — the CI smoke gate.
func RunQuantInfer(s Scale, arch string, sparsity float64, seed uint64, progress Progress) (*QuantInferReport, error) {
	ds := s.Dataset(CIFAR10, 1000+seed)
	net := models.Build(models.Config{
		Arch: arch, Classes: ds.Config.Classes,
		InC: ds.Config.C, InH: ds.Config.H, InW: ds.Config.W,
		Timesteps: s.Timesteps, Neuron: snn.DefaultNeuron(),
		Profile: s.Profile, Seed: seed*31 + 7,
	})
	spec := Spec{Method: MethodNDSNN, Arch: arch, Dataset: CIFAR10, Sparsity: sparsity, Seed: seed}
	if _, err := RunOn(s, spec, ds, net); err != nil {
		return nil, err
	}

	// The whole test split: accuracy deltas on these reduced-scale models
	// are sample-flip noise, so more samples means a stabler pinned gate.
	n := ds.Test.N()
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	samples := make([]*tensor.Tensor, n)
	for i := range samples {
		samples[i] = tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], ds.Config.C, ds.Config.H, ds.Config.W)
	}

	rep := &QuantInferReport{
		Arch: arch, Sparsity: sparsity, Samples: n,
		Int8AccTolerance: Int8AccuracyTolerance,
	}

	feng, err := infer.Compile(net)
	if err != nil {
		return nil, err
	}
	_, facc := evalEngine(feng, samples, ds.Test.Labels)
	rep.FP32Acc = facc
	rep.FP32SynOpsPerSample = float64(feng.SynOps()) / float64(n)
	report(progress, "quant-infer fp32: acc=%.3f synops=%.0f", facc, rep.FP32SynOpsPerSample)

	for _, platform := range sparse.Platforms {
		qeng, err := infer.CompileQuantized(net, platform.WeightBits)
		if err != nil {
			return nil, err
		}
		qscores, qacc := evalEngine(qeng, samples, ds.Test.Labels)
		st := qeng.QuantStats()
		row := QuantInferRow{
			Platform: platform.Name, Bits: platform.WeightBits,
			Acc: qacc, AccDelta: qacc - facc,
			SynOpsPerSample:  float64(qeng.SynOps()) / float64(n),
			PackedValueBytes: st.PackedValueBytes,
			FloatValueBytes:  st.FloatValueBytes,
			QuantizedStages:  st.QuantizedStages,
			ComputeStages:    st.ComputeStages,
			StoredSynapses:   st.StoredSynapses,
			ZeroQuantized:    st.ZeroQuantized,
		}
		if st.PackedValueBytes > 0 {
			row.MemoryReduction = float64(st.FloatValueBytes) / float64(st.PackedValueBytes)
		}
		// Exactness check: the float engine on the dequantized weights must
		// reproduce the integer engine's scores (bit-exact at ≤8 bits).
		restore, err := infer.QuantizeNetWeights(net, platform.WeightBits)
		if err != nil {
			return nil, err
		}
		deng, err := infer.Compile(net)
		if err != nil {
			restore()
			return nil, err
		}
		dscores, _ := evalEngine(deng, samples, ds.Test.Labels)
		restore()
		for i := range qscores {
			row.MaxAbsDiffVsDequantRef = math.Max(row.MaxAbsDiffVsDequantRef, maxAbsDiff32(qscores[i], dscores[i]))
		}
		rep.Rows = append(rep.Rows, row)
		report(progress, "quant-infer %s (int%d): acc=%.3f (Δ%+.3f) synops=%.0f mem %.1fx diff=%.2g",
			platform.Name, platform.WeightBits, qacc, row.AccDelta,
			row.SynOpsPerSample, row.MemoryReduction, row.MaxAbsDiffVsDequantRef)
		if platform.WeightBits == 8 {
			if row.MaxAbsDiffVsDequantRef != 0 {
				return nil, fmt.Errorf("bench: int8 engine diverges from its dequantized float reference (max abs diff %g, want exact)", row.MaxAbsDiffVsDequantRef)
			}
			if row.AccDelta < -Int8AccuracyTolerance {
				return nil, fmt.Errorf("bench: int8 accuracy %0.3f diverges from fp32 %0.3f beyond the pinned tolerance %0.2f", qacc, facc, Int8AccuracyTolerance)
			}
		}
	}
	rep.FullInteger, err = runFullInteger(s, sparsity, seed, progress)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// runFullInteger trains a LeNet-5 (the po2-avg-pool pipeline) and measures
// the fully-integer engine against the fp32 baseline and the weights-only
// mixed engine, enforcing the extended equivalence pins: AnalogStages == 0,
// bit-identity to both the mixed engine and the float reference on
// dequantized weights with grid-snapped inputs, and the pinned accuracy
// tolerance on the real weights.
func runFullInteger(s Scale, sparsity float64, seed uint64, progress Progress) (*FullIntegerCell, error) {
	const arch = "lenet5"
	ds := s.Dataset(CIFAR10, 1100+seed)
	net := models.Build(models.Config{
		Arch: arch, Classes: ds.Config.Classes,
		InC: ds.Config.C, InH: ds.Config.H, InW: ds.Config.W,
		Timesteps: s.Timesteps, Neuron: snn.DefaultNeuron(),
		Profile: s.Profile, Seed: seed*37 + 11,
	})
	spec := Spec{Method: MethodNDSNN, Arch: arch, Dataset: CIFAR10, Sparsity: sparsity, Seed: seed}
	if _, err := RunOn(s, spec, ds, net); err != nil {
		return nil, err
	}
	n := ds.Test.N()
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	samples := make([]*tensor.Tensor, n)
	for i := range samples {
		samples[i] = tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], ds.Config.C, ds.Config.H, ds.Config.W)
	}

	cell := &FullIntegerCell{Arch: arch, WeightBits: 8, ActivationBits: 8}
	feng, err := infer.Compile(net)
	if err != nil {
		return nil, err
	}
	_, facc := evalEngine(feng, samples, ds.Test.Labels)
	cell.FP32Acc = facc
	cell.FP32SynOpsPerSample = float64(feng.SynOps()) / float64(n)

	cfg := infer.QuantConfig{WeightBits: 8, FullInteger: true}
	full, err := infer.CompileQuantizedConfig(net, cfg)
	if err != nil {
		return nil, err
	}
	st := full.QuantStats()
	cell.QuantizedStages = st.QuantizedStages
	cell.ComputeStages = st.ComputeStages
	cell.AnalogStages = st.AnalogStages
	if cell.AnalogStages != 0 {
		return nil, fmt.Errorf("bench: FullInteger %s engine reports %d analog stages, want 0", arch, cell.AnalogStages)
	}
	mixed, err := infer.CompileQuantized(net, 8)
	if err != nil {
		return nil, err
	}
	cell.MixedAnalogStages = mixed.QuantStats().AnalogStages

	_, qacc := evalEngine(full, samples, ds.Test.Labels)
	cell.Acc = qacc
	cell.AccDelta = qacc - facc
	cell.SynOpsPerSample = float64(full.SynOps()) / float64(n)

	// Activation-memory column: size the inter-stage edges from the arena of
	// a served request (dtype-aware bits vs float32 width).
	sc := full.NewScratch()
	full.InferScratch(sc, samples[0])
	cell.ActivationPackedBytes, cell.ActivationFloatBytes = full.ActivationFootprint(sc)
	if cell.ActivationPackedBytes > 0 {
		cell.ActivationMemoryReduction = float64(cell.ActivationFloatBytes) / float64(cell.ActivationPackedBytes)
	}

	// Equivalence pins: on dequantized weights and grid-snapped inputs the
	// fully-integer engine, the mixed engine and the float reference must
	// agree bit for bit.
	grid, ok := full.InputGrid()
	if !ok {
		return nil, fmt.Errorf("bench: FullInteger engine has no input grid")
	}
	snapped := make([]*tensor.Tensor, n)
	for i := range snapped {
		buf := append([]float32(nil), ds.Test.Images[i*pix:(i+1)*pix]...)
		snapped[i] = tensor.FromSlice(grid.SnapSlice(buf), ds.Config.C, ds.Config.H, ds.Config.W)
	}
	restore, err := infer.QuantizeNetWeightsConfig(net, cfg)
	if err != nil {
		return nil, err
	}
	dmixed, err := infer.CompileQuantized(net, 8)
	if err != nil {
		restore()
		return nil, err
	}
	dref, err := infer.Compile(net)
	if err != nil {
		restore()
		return nil, err
	}
	fscores, _ := evalEngine(full, snapped, ds.Test.Labels)
	mscores, _ := evalEngine(dmixed, snapped, ds.Test.Labels)
	rscores, _ := evalEngine(dref, snapped, ds.Test.Labels)
	restore()
	for i := range fscores {
		cell.MaxAbsDiffVsMixed = math.Max(cell.MaxAbsDiffVsMixed, maxAbsDiff32(fscores[i], mscores[i]))
		cell.MaxAbsDiffVsDequantRef = math.Max(cell.MaxAbsDiffVsDequantRef, maxAbsDiff32(fscores[i], rscores[i]))
	}
	report(progress, "quant-infer full-integer %s (w8/a8): acc=%.3f (Δ%+.3f) analog=%d (mixed %d) act-mem %.1fx diff vs mixed=%g ref=%g",
		arch, qacc, cell.AccDelta, cell.AnalogStages, cell.MixedAnalogStages,
		cell.ActivationMemoryReduction, cell.MaxAbsDiffVsMixed, cell.MaxAbsDiffVsDequantRef)
	if cell.MaxAbsDiffVsMixed != 0 {
		return nil, fmt.Errorf("bench: fully-integer engine diverges from the mixed engine on dequantized weights (max abs diff %g, want exact)", cell.MaxAbsDiffVsMixed)
	}
	if cell.MaxAbsDiffVsDequantRef != 0 {
		return nil, fmt.Errorf("bench: fully-integer engine diverges from its dequantized float reference (max abs diff %g, want exact)", cell.MaxAbsDiffVsDequantRef)
	}
	if cell.AccDelta < -Int8AccuracyTolerance {
		return nil, fmt.Errorf("bench: fully-integer accuracy %0.3f diverges from fp32 %0.3f beyond the pinned tolerance %0.2f", qacc, facc, Int8AccuracyTolerance)
	}
	return cell, nil
}

// evalEngine classifies every sample, returning the per-sample score
// vectors and the accuracy.
func evalEngine(eng *infer.Engine, samples []*tensor.Tensor, labels []int) (scores [][]float32, acc float64) {
	eng.ResetStats()
	scores = make([][]float32, len(samples))
	correct := 0
	for i, s := range samples {
		scores[i] = eng.Infer(s)
		best, bestIdx := scores[i][0], 0
		for j, v := range scores[i][1:] {
			if v > best {
				best = v
				bestIdx = j + 1
			}
		}
		if bestIdx == labels[i] {
			correct++
		}
	}
	return scores, float64(correct) / float64(len(samples))
}

func maxAbsDiff32(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// PrintQuantInfer writes the report as indented JSON (the BENCH artifact
// format).
func PrintQuantInfer(w io.Writer, r *QuantInferReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("bench: encode quant-infer report: %w", err)
	}
	return nil
}
