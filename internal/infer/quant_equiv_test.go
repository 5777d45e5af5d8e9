package infer_test

import (
	"math"
	"strings"
	"testing"

	"ndsnn/internal/core"
	"ndsnn/internal/data"
	"ndsnn/internal/infer"
	"ndsnn/internal/layers"
	"ndsnn/internal/models"
	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
	"ndsnn/internal/testutil"
	"ndsnn/internal/train"
)

// assertBitIdentical pins the integer engine against the float engine
// running on the dequantized weights: the QCSR grid uses power-of-two
// scales, so every float partial sum the reference performs is exact and
// the two engines must agree bit for bit.
func assertBitIdentical(t *testing.T, qeng, ref *infer.Engine, ds *data.Dataset, samples int) {
	t.Helper()
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	for i := 0; i < samples; i++ {
		sample := tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], ds.Config.C, ds.Config.H, ds.Config.W)
		got := qeng.Infer(sample)
		want := ref.Infer(sample)
		if len(got) != len(want) {
			t.Fatalf("sample %d: %d scores vs %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("sample %d score %d: integer engine %v != dequantized float reference %v (must be bit-identical)",
					i, j, got[j], want[j])
			}
		}
	}
}

// quantEquivCheck compiles the integer engine at bits, materializes the
// dequantized float reference via QuantizeNetWeights, and pins bitwise
// equality (plus training-path agreement at the float engine's tolerance).
func quantEquivCheck(t *testing.T, net *snn.Network, ds *data.Dataset, bits, samples int) {
	t.Helper()
	qeng, err := infer.CompileQuantized(net, bits)
	if err != nil {
		t.Fatal(err)
	}
	restore, err := infer.QuantizeNetWeights(net, bits)
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	ref, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, qeng, ref, ds, samples)
	// And the fake-quantized training-path forward agrees at the float
	// engine's established tolerance (BN-fold op-order rounding only).
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	for i := 0; i < samples; i++ {
		x, _ := ds.Batch(&ds.Test, []int{i})
		want := snn.MeanOutput(net.Forward(x, false))
		sample := tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], ds.Config.C, ds.Config.H, ds.Config.W)
		got := qeng.Infer(sample)
		for j := range got {
			if math.Abs(float64(got[j]-want.Data[j])) > 2e-4 {
				t.Fatalf("sample %d score %d: integer engine %v vs fake-quantized training path %v", i, j, got[j], want.Data[j])
			}
		}
	}
}

func TestQuantizedEngineBitIdenticalTinyNet(t *testing.T) {
	ds := data.SynthEasy(4, 64, 16, 51)
	net := testutil.TinyNet(4, 3, 21)
	trainBriefly(t, net, ds)
	for _, bits := range []int{8, 4, 16} {
		quantEquivCheck(t, net, ds, bits, 8)
	}
}

func TestQuantizedEngineBitIdenticalSparseModel(t *testing.T) {
	// The deployment case: NDSNN-trained sparse weights, quantized.
	ds := data.SynthEasy(4, 64, 16, 53)
	net := testutil.TinyNet(4, 2, 26)
	_, err := core.TrainNDSNN(net, ds, train.Common{
		Epochs: 3, BatchSize: 16, LR: 0.05, Momentum: 0.9, WeightDecay: 5e-4, Seed: 2,
	}, core.Config{InitialSparsity: 0.5, FinalSparsity: 0.9, DeltaT: 4})
	if err != nil {
		t.Fatal(err)
	}
	quantEquivCheck(t, net, ds, 8, 8)
	quantEquivCheck(t, net, ds, 4, 8)
}

func TestQuantizedEngineBitIdenticalResNet(t *testing.T) {
	ds := data.SynthSmall(4, 32, 8, 55)
	net := models.Build(models.Config{
		Arch: "resnet19", Classes: 4, InC: 3, InH: 16, InW: 16,
		Timesteps: 2, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 6,
	})
	trainBriefly(t, net, ds)
	quantEquivCheck(t, net, ds, 8, 3)
}

func TestQuantizedEngineBitIdenticalLeNetAvgPool(t *testing.T) {
	// Average pooling produces graded events, so LeNet only quantizes its
	// spike-fed tail; the mixed integer/float pipeline must still match the
	// dequantized reference bit for bit.
	ds := data.Generate(data.Config{
		Name: "t", Classes: 4, C: 3, H: 32, W: 32,
		TrainN: 32, TestN: 8, Noise: 0.2, Jitter: 0.05, Seed: 9,
	})
	net := models.Build(models.Config{
		Arch: "lenet5", Classes: 4, InC: 3, InH: 32, InW: 32,
		Timesteps: 2, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 8,
	})
	trainBriefly(t, net, ds)
	qeng, err := infer.CompileQuantized(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := qeng.QuantStats()
	if st.QuantizedStages == 0 || st.QuantizedStages >= st.ComputeStages {
		t.Fatalf("LeNet coverage should be partial (analog avg-pool inputs): %d of %d", st.QuantizedStages, st.ComputeStages)
	}
	quantEquivCheck(t, net, ds, 8, 4)
}

func TestQuantizedEngineSkipsAnalogFirstConv(t *testing.T) {
	ds := data.SynthEasy(4, 32, 8, 57)
	net := testutil.TinyNet(4, 2, 31)
	trainBriefly(t, net, ds)
	qeng, err := infer.CompileQuantized(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := qeng.QuantStats()
	// TinyNet has conv1 (analog direct-encoded input), conv2 and fc
	// (spike-fed): exactly two of three stages quantize.
	if st.ComputeStages != 3 || st.QuantizedStages != 2 {
		t.Fatalf("TinyNet coverage %d of %d, want 2 of 3", st.QuantizedStages, st.ComputeStages)
	}
	if st.FloatValueBytes != 4*st.PackedValueBytes {
		t.Fatalf("int8 value storage not 4x smaller: packed=%d float=%d", st.PackedValueBytes, st.FloatValueBytes)
	}
}

func TestQuantizedEngineSynOpsDropWithPrecision(t *testing.T) {
	// Lower precision rounds more weights to level zero; the integer
	// kernels skip them, so measured SynOps must not increase as precision
	// falls — and must drop strictly at 2 bits for real weight
	// distributions.
	ds := data.SynthEasy(4, 64, 16, 59)
	net := testutil.TinyNet(4, 2, 36)
	trainBriefly(t, net, ds)
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	sample := tensor.FromSlice(ds.Test.Images[:pix], 3, 16, 16)
	opsAt := func(bits int) int64 {
		eng, err := infer.CompileQuantized(net, bits)
		if err != nil {
			t.Fatal(err)
		}
		eng.ResetStats()
		eng.Infer(sample)
		return eng.SynOps()
	}
	ops16, ops8, ops2 := opsAt(16), opsAt(8), opsAt(2)
	if ops8 > ops16 || ops2 > ops8 {
		t.Fatalf("SynOps increased with coarser quantization: 16b=%d 8b=%d 2b=%d", ops16, ops8, ops2)
	}
	if ops2 >= ops16 {
		t.Fatalf("2-bit SynOps %d not below 16-bit %d (zero-rounded synapses must stop costing work)", ops2, ops16)
	}
}

// snapSample returns sample i of the dataset's test split with every pixel
// projected onto the engine's input grid — the inputs under which the
// full-integer engine, the mixed engine, and the float reference all see
// exactly the same activations.
func snapSample(t *testing.T, eng *infer.Engine, ds *data.Dataset, i int) *tensor.Tensor {
	t.Helper()
	g, ok := eng.InputGrid()
	if !ok {
		t.Fatal("engine has no input grid (compiled without ActivationBits?)")
	}
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	buf := append([]float32(nil), ds.Test.Images[i*pix:(i+1)*pix]...)
	return tensor.FromSlice(g.SnapSlice(buf), ds.Config.C, ds.Config.H, ds.Config.W)
}

// fullIntegerEquivCheck is the PR 4 equivalence pin extended to the
// fully-integer engine: with every weight dequantized onto its QCSR grid
// and inputs snapped onto the input ActGrid, the fully-integer engine, the
// PR 4 mixed engine, and the float engine must agree bit for bit — po2×po2
// products are exact and every integer partial sum stays far below 2^24.
func fullIntegerEquivCheck(t *testing.T, net *snn.Network, ds *data.Dataset, samples int) {
	t.Helper()
	cfg := infer.QuantConfig{WeightBits: 8, FullInteger: true}
	full, err := infer.CompileQuantizedConfig(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := full.QuantStats()
	if st.AnalogStages != 0 {
		t.Fatalf("FullInteger engine reports %d analog stages, want 0; table: %v", st.AnalogStages, st.Stages)
	}
	if !st.FullInteger || st.ActivationBits != 8 {
		t.Fatalf("QuantStats not reporting the full-integer config: %+v", st)
	}
	restore, err := infer.QuantizeNetWeightsConfig(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	ref, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := infer.CompileQuantized(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < samples; i++ {
		sample := snapSample(t, full, ds, i)
		got := full.Infer(sample)
		want := ref.Infer(sample)
		mid := mixed.Infer(sample)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("sample %d score %d: full-integer engine %v != dequantized float reference %v (must be bit-identical)",
					i, j, got[j], want[j])
			}
			if got[j] != mid[j] {
				t.Fatalf("sample %d score %d: full-integer engine %v != mixed engine %v on dequantized weights (must be bit-identical)",
					i, j, got[j], mid[j])
			}
		}
	}
}

func TestFullIntegerEngineBitIdenticalLeNet(t *testing.T) {
	// The headline pipeline: LeNet's analog first conv, both avg pools, and
	// the post-pool graded stages all run integer under FullInteger, where
	// the mixed engine left them analog.
	ds := data.Generate(data.Config{
		Name: "t", Classes: 4, C: 3, H: 32, W: 32,
		TrainN: 32, TestN: 8, Noise: 0.2, Jitter: 0.05, Seed: 9,
	})
	net := models.Build(models.Config{
		Arch: "lenet5", Classes: 4, InC: 3, InH: 32, InW: 32,
		Timesteps: 2, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 8,
	})
	trainBriefly(t, net, ds)
	mixed, err := infer.CompileQuantized(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.QuantStats().AnalogStages == 0 {
		t.Fatal("mixed LeNet engine should still have analog stages — the contrast the refactor exists to close")
	}
	fullIntegerEquivCheck(t, net, ds, 4)
}

func TestFullIntegerEngineBitIdenticalTinyNet(t *testing.T) {
	ds := data.SynthEasy(4, 64, 16, 51)
	net := testutil.TinyNet(4, 3, 21)
	trainBriefly(t, net, ds)
	fullIntegerEquivCheck(t, net, ds, 8)
}

func TestFullIntegerCompileFailsOnNonPo2Pool(t *testing.T) {
	// A 3×3 average pool cannot divide exactly on a po2 grid, so the walker
	// keeps it float — and FullInteger must refuse to compile rather than
	// silently ship a mixed pipeline, naming the offending stage.
	r := rng.New(77)
	net := &snn.Network{
		T: 2,
		Layers: []layers.Layer{
			layers.NewConv2d("conv1", 3, 4, 3, 1, 1, false, r),
			layers.NewBatchNorm("conv1.bn", 4),
			snn.DefaultNeuron().New(),
			layers.NewAvgPool2d(3, 3),
			layers.NewFlatten(),
			layers.NewLinear("fc", 4*5*5, 4, true, r),
		},
	}
	_, err := infer.CompileQuantizedConfig(net, infer.QuantConfig{WeightBits: 8, FullInteger: true})
	if err == nil {
		t.Fatal("FullInteger compile accepted a float 3×3 avg pool")
	}
	if !strings.Contains(err.Error(), "avgpool") {
		t.Fatalf("FullInteger error does not name the offending stage: %v", err)
	}
	// Without the guarantee flag the same net compiles as a (valid) mixed
	// pipeline that reports its residual analog work.
	eng, err := infer.CompileQuantizedConfig(net, infer.QuantConfig{WeightBits: 8, ActivationBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if eng.QuantStats().AnalogStages == 0 {
		t.Fatal("3×3-pool pipeline cannot be fully integer; AnalogStages must be nonzero")
	}
}

// TestCompileRejectsInt32Overflow: at 16-bit weights and 16-bit
// activations, TinyNet's first integer conv can sum past 2^31−1 in its
// int32 accumulator, which would wrap silently. The compile must fail,
// naming the stage, while narrower configurations of the same net compile.
func TestCompileRejectsInt32Overflow(t *testing.T) {
	ds := data.SynthEasy(4, 64, 16, 31)
	net := testutil.TinyNet(4, 3, 1)
	trainBriefly(t, net, ds)
	_, err := infer.CompileQuantizedConfig(net, infer.QuantConfig{WeightBits: 16, ActivationBits: 16, FullInteger: true})
	if err == nil || !strings.Contains(err.Error(), "01_qconv") || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("16/16 compile: err = %v, want an overflow error naming stage 01_qconv", err)
	}
	for _, cfg := range []infer.QuantConfig{
		{WeightBits: 8, ActivationBits: 8, FullInteger: true},
		{WeightBits: 12, ActivationBits: 12, FullInteger: true},
		{WeightBits: 16},
		{WeightBits: 16, ActivationBits: 8},
		{WeightBits: 8, ActivationBits: 16},
	} {
		if _, err := infer.CompileQuantizedConfig(net, cfg); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

func TestResidualDTypeReconciliation(t *testing.T) {
	// Regression for the old save/restore of a raw binary flag: a residual
	// whose branches disagree on dtype — the identity shortcut keeps the
	// block input's spike edge while the main path's BN epilogue is analog —
	// must reconcile the sum edge to f32 via the lattice join, and the
	// compiled engine must still match the dequantized float reference.
	ds := data.SynthSmall(4, 32, 8, 55)
	net := models.Build(models.Config{
		Arch: "resnet19", Classes: 4, InC: 3, InH: 16, InW: 16,
		Timesteps: 2, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 6,
	})
	trainBriefly(t, net, ds)
	eng, err := infer.CompileQuantized(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	sums := 0
	for _, st := range eng.QuantStats().Stages {
		if st.Kind != "sum" {
			continue
		}
		sums++
		if st.In.Kind != infer.AnalogF32 || st.Out.Kind != infer.AnalogF32 {
			t.Fatalf("residual sum %s reconciled to %v + shortcut → %v, want analog f32 on both edges", st.Name, st.In, st.Out)
		}
	}
	if sums == 0 {
		t.Fatal("resnet19 dtype table lists no residual sum rows")
	}
	quantEquivCheck(t, net, ds, 8, 2)
}

func TestQuantizeNetWeightsRestores(t *testing.T) {
	ds := data.SynthEasy(4, 32, 8, 61)
	net := testutil.TinyNet(4, 2, 41)
	trainBriefly(t, net, ds)
	eng, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	sample := tensor.FromSlice(ds.Test.Images[:pix], 3, 16, 16)
	before := eng.Infer(sample)
	restore, err := infer.QuantizeNetWeights(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	restore()
	eng2, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	after := eng2.Infer(sample)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("QuantizeNetWeights restore did not reproduce the original network")
		}
	}
}
