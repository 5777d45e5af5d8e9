package snn_test

import (
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
	"ndsnn/internal/testutil"
)

func TestHardResetHandComputedSequence(t *testing.T) {
	// α=0.5, ϑ=1, hard reset. Constant input 1.2:
	// t0: v=1.2 → spike; t1: v = 0.5·1.2·(1-1) + 1.2 = 1.2 → spike again
	// (membrane zeroed by the multiplicative reset, then recharged).
	cfg := snn.NeuronConfig{Alpha: 0.5, Threshold: 1, DetachReset: true, HardReset: true}
	l := cfg.New()
	x := tensor.FromSlice([]float32{1.2}, 1, 1)
	for step := 0; step < 3; step++ {
		if o := l.Forward(x, false); o.Data[0] != 1 {
			t.Fatalf("step %d: no spike", step)
		}
	}
}

func TestHardVsSoftResetDiffer(t *testing.T) {
	// Input 1.6 with ϑ=1: soft reset carries v-ϑ=0.6 forward, hard reset
	// zeroes the membrane, so the two accumulate differently.
	soft := snn.NeuronConfig{Alpha: 1, Threshold: 1, DetachReset: true}.New()
	hard := snn.NeuronConfig{Alpha: 1, Threshold: 1, DetachReset: true, HardReset: true}.New()
	x := tensor.FromSlice([]float32{0.7}, 1, 1)
	var softSpikes, hardSpikes int
	for step := 0; step < 10; step++ {
		if soft.Forward(x, false).Data[0] == 1 {
			softSpikes++
		}
		if hard.Forward(x, false).Data[0] == 1 {
			hardSpikes++
		}
	}
	if softSpikes <= hardSpikes {
		t.Fatalf("soft reset (%d spikes) should out-fire hard reset (%d) at α=1", softSpikes, hardSpikes)
	}
}

func TestHardResetSmoothGradients(t *testing.T) {
	cfg := snn.NeuronConfig{Alpha: 0.6, Threshold: 0.8, DetachReset: false, HardReset: true, Surrogate: snn.ATan{}}
	l := cfg.New()
	l.Smooth = true
	testutil.GradCheck(t, "lif-hardreset-bptt", l, testutil.GradCheckConfig{InShape: []int{2, 5}, Timesteps: 4, Eps: 3e-3, Tol: 4e-2})
}

func TestHardResetTrainEvalConsistency(t *testing.T) {
	// Train-mode and eval-mode forwards must produce identical spikes (the
	// extra caching must not change dynamics).
	cfg := snn.NeuronConfig{Alpha: 0.7, Threshold: 1, HardReset: true}
	a, b := cfg.New(), cfg.New()
	r := rng.New(8)
	for step := 0; step < 5; step++ {
		x := tensor.New(2, 4)
		for i := range x.Data {
			x.Data[i] = r.NormFloat32()
		}
		oa := a.Forward(x, true)
		ob := b.Forward(x, false)
		for i := range oa.Data {
			if oa.Data[i] != ob.Data[i] {
				t.Fatalf("step %d: train/eval outputs differ", step)
			}
		}
	}
}
