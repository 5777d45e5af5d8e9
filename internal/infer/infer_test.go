package infer_test

import (
	"math"
	"testing"

	"ndsnn/internal/baselines"
	"ndsnn/internal/core"
	"ndsnn/internal/data"
	"ndsnn/internal/infer"
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

func TestEngineMatchesHardResetModel(t *testing.T) {
	ds := data.SynthEasy(4, 32, 8, 35)
	r := rng.New(12)
	neuron := snn.NeuronConfig{Alpha: 0.5, Threshold: 1, DetachReset: true, HardReset: true}
	net := &snn.Network{T: 3, Layers: testutil.TinyNet(4, 3, 12).Layers}
	// Swap LIFs for hard-reset neurons.
	for i, l := range net.Layers {
		if _, ok := l.(*snn.LIF); ok {
			net.Layers[i] = neuron.New()
		}
	}
	_ = r
	trainBriefly(t, net, ds)
	eng, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, net, eng, ds, 4)
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
	// sparse even in a dense-weight model.
	ds := data.SynthEasy(4, 64, 16, 39)
	net := testutil.TinyNet(4, 2, 9)
	trainBriefly(t, net, ds)
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
		t.Fatalf("SynOps %d not below dense bound %d", eng.SynOps(), denseBound)
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
