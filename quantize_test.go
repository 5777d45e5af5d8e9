package ndsnn

import (
	"testing"

	"ndsnn/internal/layers"
)

func trainTinyModel(t *testing.T) (*Model, *Result) {
	t.Helper()
	m, res, err := TrainModel(Config{Method: NDSNN, Arch: "lenet5", Dataset: "cifar10", Sparsity: 0.8, Scale: "unit", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestEvaluateQuantizedRestoresWeights(t *testing.T) {
	m, res := trainTinyModel(t)
	before := m.Layers()
	acc8, synOps8, dense8, err := m.EvaluateQuantized(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	acc4, _, _, err := m.EvaluateQuantized(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc8 < 0 || acc8 > 1 || acc4 < 0 || acc4 > 1 {
		t.Fatalf("quantized accuracies: 8b=%v 4b=%v", acc8, acc4)
	}
	if synOps8 <= 0 || dense8 <= 0 {
		t.Fatalf("quantized evaluation swallowed the efficiency stats: synops=%v denseMACs=%v", synOps8, dense8)
	}
	if synOps8 >= dense8 {
		t.Fatalf("quantized SynOps %v not below the dense-MAC bound %v", synOps8, dense8)
	}
	// 16-bit quantization is lossless at test tolerance: accuracy must
	// match the FP32 engine result.
	acc16, _, _, err := m.EvaluateQuantized(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc16 != res.TestAccuracy {
		t.Logf("16-bit acc %v vs fp32 %v (rounding at decision boundary)", acc16, res.TestAccuracy)
	}
	// Weights restored after evaluation.
	after := m.Layers()
	for i := range before {
		if before[i].Active != after[i].Active {
			t.Fatal("quantization mutated the model permanently")
		}
	}
	if _, _, _, err := m.EvaluateQuantized(1, 0); err == nil {
		t.Fatal("1-bit width accepted")
	}
}

func TestEvaluateQuantizedSynOpsDropWithBits(t *testing.T) {
	// Aggressive quantization rounds more small weights to exactly zero;
	// those synapses are dead and the measured SynOps must drop below the
	// FP32 engine's, monotonically with precision.
	m, _ := trainTinyModel(t)
	eng, err := m.CompileInference()
	if err != nil {
		t.Fatal(err)
	}
	_, fp32SynOps, _ := eng.EvaluateTest(0)
	_, synOps2, _, err := m.EvaluateQuantized(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, synOps16, _, err := m.EvaluateQuantized(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if synOps2 >= synOps16 {
		t.Fatalf("2-bit SynOps %v not below 16-bit SynOps %v (zero-rounded weights must stop costing work)", synOps2, synOps16)
	}
	if synOps16 > fp32SynOps {
		t.Fatalf("16-bit SynOps %v above FP32 SynOps %v", synOps16, fp32SynOps)
	}
}

func TestEvaluateQuantizedLeavesNoStaleCSRCache(t *testing.T) {
	// Regression for the stale-cache bug: EvaluateQuantized mutates the
	// prunable weights twice (quantize, then restore), and each mutation
	// must drop any cached CSR/CSC encoding — a cache populated from the
	// FP32 weights beforehand must not survive the evaluation, and the
	// restored model must reproduce the FP32 engine exactly.
	m, _ := trainTinyModel(t)
	eng, err := m.CompileInference()
	if err != nil {
		t.Fatal(err)
	}
	accBefore, synOpsBefore, _ := eng.EvaluateTest(0)
	// Populate CSR caches from the FP32 weights (the training-path state a
	// caller would realistically be in).
	cached := 0
	params := layers.PrunableParams(m.net.Params())
	for _, p := range params {
		if p.SparseW() != nil {
			cached++
		}
	}
	if cached == 0 {
		t.Fatal("test setup: no parameter is CSR-eligible")
	}
	if _, _, _, err := m.EvaluateQuantized(2, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range params {
		if p.CSRCached() {
			t.Fatalf("param %s: CSR cache survived the quantized evaluation", p.Name)
		}
	}
	eng2, err := m.CompileInference()
	if err != nil {
		t.Fatal(err)
	}
	accAfter, synOpsAfter, _ := eng2.EvaluateTest(0)
	if accBefore != accAfter || synOpsBefore != synOpsAfter {
		t.Fatalf("FP32 engine changed across a quantized evaluation: acc %v→%v synops %v→%v",
			accBefore, accAfter, synOpsBefore, synOpsAfter)
	}
}

func TestCompileQuantizedInference(t *testing.T) {
	m, _ := trainTinyModel(t)
	feng, err := m.CompileInference()
	if err != nil {
		t.Fatal(err)
	}
	if feng.QuantInfo() != nil {
		t.Fatal("float engine reports quantization info")
	}
	facc, _, _ := feng.EvaluateTest(0)
	qeng, err := m.CompileQuantizedInference(8)
	if err != nil {
		t.Fatal(err)
	}
	qacc, qsynOps, qdense := qeng.EvaluateTest(0)
	if qacc < 0 || qacc > 1 || qsynOps <= 0 || qdense <= 0 {
		t.Fatalf("int8 engine stats out of range: acc=%v synops=%v dense=%v", qacc, qsynOps, qdense)
	}
	if qacc < facc-0.1 {
		t.Fatalf("int8 engine accuracy %v far below fp32 %v", qacc, facc)
	}
	qi := qeng.QuantInfo()
	if qi == nil || qi.Bits != 8 {
		t.Fatalf("missing quantization info: %+v", qi)
	}
	if qi.QuantizedStages == 0 || qi.QuantizedStages > qi.ComputeStages {
		t.Fatalf("implausible integer coverage: %d of %d stages", qi.QuantizedStages, qi.ComputeStages)
	}
	if qi.FloatValueBytes != 4*qi.PackedValueBytes {
		t.Fatalf("int8 packed-weight reduction not 4x: packed=%d float=%d", qi.PackedValueBytes, qi.FloatValueBytes)
	}
	q4, err := m.CompileQuantizedInference(4)
	if err != nil {
		t.Fatal(err)
	}
	qi4 := q4.QuantInfo()
	if ratio := float64(qi4.FloatValueBytes) / float64(qi4.PackedValueBytes); ratio < 7.5 {
		t.Fatalf("int4 packed-weight reduction %.2fx, want ~8x", ratio)
	}
	if _, err := m.CompileQuantizedInference(0); err == nil {
		t.Fatal("0-bit width accepted")
	}
}

func TestCompileQuantizedInferenceFullInteger(t *testing.T) {
	m, _ := trainTinyModel(t)
	feng, err := m.CompileInference()
	if err != nil {
		t.Fatal(err)
	}
	facc, _, _ := feng.EvaluateTest(0)

	// The mixed engine leaves lenet5's analog-fed stages float …
	mixed, err := m.CompileQuantizedInference(8)
	if err != nil {
		t.Fatal(err)
	}
	if qi := mixed.QuantInfo(); qi.AnalogStages == 0 || qi.ActivationBits != 0 {
		t.Fatalf("mixed engine info implausible: %+v", qi)
	}

	// … and the fully-integer engine closes every one of them.
	full, err := m.CompileQuantizedInferenceConfig(QuantizedInferenceConfig{WeightBits: 8, FullInteger: true})
	if err != nil {
		t.Fatal(err)
	}
	qi := full.QuantInfo()
	if qi == nil || !qi.FullInteger || qi.ActivationBits != 8 || qi.Bits != 8 {
		t.Fatalf("full-integer info not reported: %+v", qi)
	}
	if qi.AnalogStages != 0 {
		t.Fatalf("FullInteger engine reports %d analog stages, want 0", qi.AnalogStages)
	}
	rows := full.StageDTypes()
	if len(rows) == 0 {
		t.Fatal("empty dtype table")
	}
	for _, r := range rows {
		switch r.Kind {
		case "conv", "linear", "avgpool":
			if !r.Integer {
				t.Fatalf("stage %s (%s %s→%s) still analog in a FullInteger engine", r.Name, r.Kind, r.In, r.Out)
			}
		}
	}
	acc, synOps, dense := full.EvaluateTest(0)
	if acc < facc-0.1 {
		t.Fatalf("full-integer accuracy %v far below fp32 %v", acc, facc)
	}
	if synOps <= 0 || dense <= 0 || synOps >= dense {
		t.Fatalf("full-integer efficiency stats implausible: synops=%v dense=%v", synOps, dense)
	}
	// The float engine exposes the same dtype table, with analog/spike edges.
	if len(feng.StageDTypes()) == 0 {
		t.Fatal("float engine has no dtype table")
	}
}

func TestPlatformBits(t *testing.T) {
	for platform, want := range map[string]int{"Loihi": 8, "HICANN": 4, "FPGA-SyncNN": 16} {
		bits, ok := PlatformBits(platform)
		if !ok || bits != want {
			t.Fatalf("PlatformBits(%q) = %d, %v; want %d, true", platform, bits, ok, want)
		}
	}
	if bits, ok := PlatformBits("GPU"); ok || bits != 0 {
		t.Fatalf("unknown platform accepted: %d, %v", bits, ok)
	}
}
