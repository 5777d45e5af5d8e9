package infer_test

import (
	"math"
	"testing"

	"ndsnn/internal/baselines"
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

// trainBriefly runs a couple of epochs so BN running statistics move away
// from their initialization (the engine must match real deployed stats).
func trainBriefly(t *testing.T, net *snn.Network, ds *data.Dataset) {
	t.Helper()
	_, err := baselines.TrainDense(net, ds, train.Common{
		Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, WeightDecay: 5e-4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// assertEquivalent checks engine output equals the training path's
// eval-mode rate-decoded output for a handful of samples.
func assertEquivalent(t *testing.T, net *snn.Network, eng *infer.Engine, ds *data.Dataset, samples int) {
	t.Helper()
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	for i := 0; i < samples; i++ {
		x, _ := ds.Batch(&ds.Test, []int{i})
		outs := net.Forward(x, false)
		want := snn.MeanOutput(outs)
		sample := tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], ds.Config.C, ds.Config.H, ds.Config.W)
		got := eng.Infer(sample)
		if len(got) != want.Size() {
			t.Fatalf("sample %d: engine produced %d scores, want %d", i, len(got), want.Size())
		}
		for j := range got {
			if math.Abs(float64(got[j]-want.Data[j])) > 2e-4 {
				t.Fatalf("sample %d score %d: engine %v vs training path %v", i, j, got[j], want.Data[j])
			}
		}
	}
}

func TestEngineMatchesTrainingPathTinyNet(t *testing.T) {
	ds := data.SynthEasy(4, 64, 16, 31)
	net := testutil.TinyNet(4, 3, 1)
	trainBriefly(t, net, ds)
	eng, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, net, eng, ds, 8)
}

func TestEngineMatchesTrainingPathLeNetAvgPool(t *testing.T) {
	ds := data.Generate(data.Config{
		Name: "t", Classes: 4, C: 3, H: 32, W: 32,
		TrainN: 32, TestN: 8, Noise: 0.2, Jitter: 0.05, Seed: 5,
	})
	net := models.Build(models.Config{
		Arch: "lenet5", Classes: 4, InC: 3, InH: 32, InW: 32,
		Timesteps: 2, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 3,
	})
	trainBriefly(t, net, ds)
	eng, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, net, eng, ds, 4)
}

func TestEngineMatchesTrainingPathResNet(t *testing.T) {
	ds := data.SynthSmall(4, 32, 8, 17)
	net := models.Build(models.Config{
		Arch: "resnet19", Classes: 4, InC: 3, InH: 16, InW: 16,
		Timesteps: 2, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 4,
	})
	trainBriefly(t, net, ds)
	eng, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, net, eng, ds, 3)
}

func TestEngineMatchesSparseModel(t *testing.T) {
	// The point of the engine: sparse (NDSNN-trained) weights. Equivalence
	// must hold with masks applied.
	ds := data.SynthEasy(4, 64, 16, 33)
	net := testutil.TinyNet(4, 2, 6)
	_, err := core.TrainNDSNN(net, ds, train.Common{
		Epochs: 3, BatchSize: 16, LR: 0.05, Momentum: 0.9, WeightDecay: 5e-4, Seed: 2,
	}, core.Config{InitialSparsity: 0.5, FinalSparsity: 0.9, DeltaT: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, net, eng, ds, 8)
}

func TestSynOpsScaleWithSparsity(t *testing.T) {
	ds := data.SynthEasy(4, 64, 16, 37)
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	sample := tensor.FromSlice(ds.Test.Images[:pix], 3, 16, 16)

	opsAt := func(sparsity float64) int64 {
		net := testutil.TinyNet(4, 2, 8)
		if sparsity > 0 {
			_, err := core.TrainNDSNN(net, ds, train.Common{
				Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 2,
			}, core.Config{InitialSparsity: sparsity / 2, FinalSparsity: sparsity, DeltaT: 4})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			trainBriefly(t, net, ds)
		}
		eng, err := infer.Compile(net)
		if err != nil {
			t.Fatal(err)
		}
		eng.ResetStats()
		eng.Infer(sample)
		return eng.SynOps()
	}
	dense := opsAt(0)
	sparse90 := opsAt(0.9)
	if sparse90 >= dense/2 {
		t.Fatalf("90%%-sparse SynOps (%d) not well below dense (%d)", sparse90, dense)
	}
}

func TestSynOpsBelowDenseMACs(t *testing.T) {
	// Event-driven ops must undercut the dense-MAC bound because spikes are
	// sparse even in a dense-weight model. The untrained ResNet-19 checks
	// that the bound counts the convs inside residual blocks.
	ds := data.SynthEasy(4, 64, 16, 39)
	tiny := testutil.TinyNet(4, 2, 9)
	trainBriefly(t, tiny, ds)
	resnet := models.Build(models.Config{
		Arch: "resnet19", Classes: 4, InC: 3, InH: 16, InW: 16,
		Timesteps: 2, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 3,
	})
	for name, net := range map[string]*snn.Network{"tinynet": tiny, "resnet19": resnet} {
		eng, err := infer.Compile(net)
		if err != nil {
			t.Fatal(err)
		}
		pix := ds.Config.C * ds.Config.H * ds.Config.W
		sample := tensor.FromSlice(ds.Test.Images[:pix], 3, 16, 16)
		eng.ResetStats()
		eng.Infer(sample)
		denseBound := eng.DenseMACsPerTimestep() * int64(net.T)
		if eng.SynOps() >= denseBound {
			t.Fatalf("%s: SynOps %d not below dense bound %d", name, eng.SynOps(), denseBound)
		}
	}
}

// TestDenseMACsNonSquareAndStrided pins the dense-MAC bound to the conv's
// real output size, outC·inC·k²·oh·ow, on a non-square input at strides 1
// and 2.
func TestDenseMACsNonSquareAndStrided(t *testing.T) {
	for _, c := range []struct {
		stride int
		want   int64
	}{
		{1, 4 * 3 * 9 * (4 * 12)}, // 4×12 outputs
		{2, 4 * 3 * 9 * (2 * 6)},  // 2×6 outputs
	} {
		r := rng.New(5)
		net := &snn.Network{T: 1, Layers: []layers.Layer{
			layers.NewConv2d("conv", 3, 4, 3, c.stride, 1, false, r),
			snn.DefaultNeuron().New(),
		}}
		eng, err := infer.Compile(net)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(3, 4, 12)
		for i := range x.Data {
			x.Data[i] = r.Float32()
		}
		eng.Infer(x)
		if got := eng.DenseMACsPerTimestep(); got != c.want {
			t.Fatalf("stride %d: DenseMACsPerTimestep %d, want %d", c.stride, got, c.want)
		}
	}
}

func TestEngineClassifyAgreesWithTrainingPath(t *testing.T) {
	ds := data.SynthEasy(4, 96, 24, 41)
	net := testutil.TinyNet(4, 2, 10)
	trainBriefly(t, net, ds)
	eng, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	agree := 0
	for i := 0; i < ds.Test.N(); i++ {
		x, _ := ds.Batch(&ds.Test, []int{i})
		outs := net.Forward(x, false)
		want := snn.MeanOutput(outs).ArgMaxRow(0)
		sample := tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], 3, 16, 16)
		if eng.Classify(sample) == want {
			agree++
		}
	}
	if agree != ds.Test.N() {
		t.Fatalf("engine agrees on %d/%d test samples", agree, ds.Test.N())
	}
}

func TestEngineDeterministicAcrossResets(t *testing.T) {
	ds := data.SynthEasy(4, 32, 8, 43)
	net := testutil.TinyNet(4, 2, 11)
	trainBriefly(t, net, ds)
	eng, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	sample := tensor.FromSlice(ds.Test.Images[:pix], 3, 16, 16)
	a := eng.Infer(sample)
	b := eng.Infer(sample)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("repeated inference differs (state leak between samples)")
		}
	}
}

// TestEpilogueWithoutBatchNorm covers the epilogue branches no model
// reaches: every model's conv has a BatchNorm and every linear a BatchNorm
// or a bias, so convs with only a bias, a bare conv and a bare linear
// compile only here. The float engine must match the training path, and
// the integer engine its dequantized float reference bit for bit.
func TestEpilogueWithoutBatchNorm(t *testing.T) {
	ds := data.SynthEasy(4, 64, 16, 45)
	r := rng.New(14)
	neuron := snn.DefaultNeuron()
	net := &snn.Network{T: 3, Layers: []layers.Layer{
		layers.NewConv2d("conv1", 3, 6, 3, 1, 1, true, r),
		neuron.New(),
		layers.NewConv2d("conv2", 6, 8, 3, 2, 1, true, r),
		neuron.New(),
		layers.NewConv2d("conv3", 8, 8, 3, 1, 1, false, r),
		neuron.New(),
		layers.NewMaxPool2d(2, 2),
		layers.NewFlatten(),
		layers.NewLinear("fc1", 8*4*4, 16, false, r),
		neuron.New(),
		layers.NewLinear("fc2", 16, 4, true, r),
	}}
	trainBriefly(t, net, ds)
	eng, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, net, eng, ds, 8)
	for _, bits := range []int{8, 4} {
		quantEquivCheck(t, net, ds, bits, 8)
	}
}
