package snn_test

import (
	"math"
	"testing"

	"ndsnn/internal/layers"
	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
	"ndsnn/internal/testutil"
)

func TestLIFHandComputedSequence(t *testing.T) {
	// α=0.5, ϑ=1. Constant input 0.6.
	// t0: v = 0.6          → no spike
	// t1: v = 0.3+0.6=0.9  → no spike
	// t2: v = 0.45+0.6=1.05 → spike
	// t3: v = 0.5*1.05+0.6-1 = 0.125 → no spike (soft reset)
	cfg := snn.NeuronConfig{Alpha: 0.5, Threshold: 1, DetachReset: true}
	l := cfg.New()
	x := tensor.FromSlice([]float32{0.6}, 1, 1)
	wantSpikes := []float32{0, 0, 1, 0}
	for step, want := range wantSpikes {
		out := l.Forward(x, false)
		if out.Data[0] != want {
			t.Fatalf("step %d: spike = %v, want %v", step, out.Data[0], want)
		}
	}
}

func TestLIFImmediateSpikeAndReset(t *testing.T) {
	cfg := snn.NeuronConfig{Alpha: 1, Threshold: 1, DetachReset: true}
	l := cfg.New()
	x := tensor.FromSlice([]float32{1.5}, 1, 1)
	// t0: v=1.5 → spike. t1: v = 1.5 + 1.5 - 1 = 2.0 → spike.
	o := l.Forward(x, false)
	if o.Data[0] != 1 {
		t.Fatal("no spike at t0 despite v >= threshold")
	}
	o = l.Forward(x, false)
	if o.Data[0] != 1 {
		t.Fatal("no spike at t1")
	}
}

func TestLIFSubthresholdNeverSpikes(t *testing.T) {
	cfg := snn.NeuronConfig{Alpha: 0.5, Threshold: 1, DetachReset: true}
	l := cfg.New()
	// With α=0.5, constant input c converges to v∞ = c/(1-α) = 2c.
	// c=0.4 → v∞=0.8 < 1: never spikes.
	x := tensor.FromSlice([]float32{0.4}, 1, 1)
	for i := 0; i < 50; i++ {
		if o := l.Forward(x, false); o.Data[0] != 0 {
			t.Fatalf("unexpected spike at step %d", i)
		}
	}
}

func TestLIFResetClearsState(t *testing.T) {
	cfg := snn.DefaultNeuron()
	l := cfg.New()
	x := tensor.FromSlice([]float32{0.9}, 1, 1)
	first := []float32{}
	for i := 0; i < 4; i++ {
		first = append(first, l.Forward(x, false).Data[0])
	}
	l.Reset()
	for i := 0; i < 4; i++ {
		if got := l.Forward(x, false).Data[0]; got != first[i] {
			t.Fatalf("sequence differs after Reset at step %d: %v vs %v", i, got, first[i])
		}
	}
}

func TestLIFSpikeStats(t *testing.T) {
	cfg := snn.NeuronConfig{Alpha: 0.5, Threshold: 1, DetachReset: true}
	l := cfg.New()
	x := tensor.FromSlice([]float32{2, 0}, 1, 2) // neuron 0 always spikes, neuron 1 never
	for i := 0; i < 10; i++ {
		l.Forward(x, false)
	}
	sum, elems := l.SpikeStats()
	if elems != 20 {
		t.Fatalf("elems = %d, want 20", elems)
	}
	if sum != 10 {
		t.Fatalf("spike sum = %v, want 10", sum)
	}
	l.ResetSpikeStats()
	sum, elems = l.SpikeStats()
	if sum != 0 || elems != 0 {
		t.Fatal("ResetSpikeStats did not zero counters")
	}
}

func TestSurrogateValues(t *testing.T) {
	atan := snn.ATan{}
	if g := atan.Grad(0); g != 1 {
		t.Fatalf("ATan.Grad(0) = %v, want 1", g)
	}
	if g := atan.Grad(1); math.Abs(float64(g)-1/(1+math.Pi*math.Pi)) > 1e-6 {
		t.Fatalf("ATan.Grad(1) = %v", g)
	}
	rect := snn.Rectangular{A: 0.5}
	if g := rect.Grad(0); g != 1 {
		t.Fatalf("Rect.Grad(0) = %v, want 1", g)
	}
	if g := rect.Grad(1); g != 0 {
		t.Fatalf("Rect.Grad(1) = %v, want 0", g)
	}
	sig := snn.Sigmoid{}
	if g := sig.Grad(0); math.Abs(float64(g)-0.25) > 1e-6 {
		t.Fatalf("Sigmoid.Grad(0) = %v, want 0.25", g)
	}
}

func TestSurrogatePrimitiveDerivative(t *testing.T) {
	// Primitive' ≈ Grad for every surrogate (the consistency smooth-mode
	// gradient checking relies on).
	surs := []snn.Surrogate{snn.ATan{}, snn.Rectangular{A: 0.7}, snn.Sigmoid{A: 2}}
	for _, s := range surs {
		for _, x := range []float32{-1.3, -0.2, 0, 0.3, 1.1} {
			const eps = 1e-3
			num := (s.Primitive(x+eps) - s.Primitive(x-eps)) / (2 * eps)
			ana := s.Grad(x)
			if math.Abs(float64(num-ana)) > 5e-3 {
				t.Fatalf("%s: primitive'(%v) = %v but Grad = %v", s.Name(), x, num, ana)
			}
		}
	}
}

func TestSurrogateByName(t *testing.T) {
	if snn.SurrogateByName("rect").Name() != "rect" {
		t.Fatal("rect lookup failed")
	}
	if snn.SurrogateByName("sigmoid").Name() != "sigmoid" {
		t.Fatal("sigmoid lookup failed")
	}
	if snn.SurrogateByName("nope").Name() != "atan" {
		t.Fatal("unknown name should default to atan")
	}
}

func TestLIFSmoothGradientsDetachedReset(t *testing.T) {
	cfg := snn.NeuronConfig{Alpha: 0.6, Threshold: 1, DetachReset: true, Surrogate: snn.ATan{}}
	l := cfg.New()
	l.Smooth = true
	// DetachReset drops the -ϑ·o[t-1] path in backward, but smooth forward
	// keeps it, so FD only matches when the reset path's contribution is
	// excluded... it is NOT; therefore check only with 1 timestep where no
	// reset has occurred yet.
	testutil.GradCheck(t, "lif-smooth-detach", l, testutil.GradCheckConfig{InShape: []int{2, 6}, Timesteps: 1})
}

func TestLIFSmoothGradientsFullBPTT(t *testing.T) {
	// With DetachReset=false the smooth LIF is exactly differentiable, so
	// multi-timestep BPTT (membrane decay path + reset path) must match
	// finite differences.
	cfg := snn.NeuronConfig{Alpha: 0.6, Threshold: 0.8, DetachReset: false, Surrogate: snn.ATan{}}
	l := cfg.New()
	l.Smooth = true
	testutil.GradCheck(t, "lif-smooth-bptt", l, testutil.GradCheckConfig{InShape: []int{2, 6}, Timesteps: 4})
}

func TestLIFSmoothGradientsSigmoidSurrogate(t *testing.T) {
	cfg := snn.NeuronConfig{Alpha: 0.4, Threshold: 0.5, DetachReset: false, Surrogate: snn.Sigmoid{A: 1.5}}
	l := cfg.New()
	l.Smooth = true
	testutil.GradCheck(t, "lif-smooth-sigmoid", l, testutil.GradCheckConfig{InShape: []int{3, 4}, Timesteps: 3})
}

func buildTinyNet(tsteps int, smooth bool, r *rng.RNG) *snn.Network {
	neuron := snn.NeuronConfig{Alpha: 0.5, Threshold: 0.9, DetachReset: false, Surrogate: snn.ATan{}}
	net := &snn.Network{
		T: tsteps,
		Layers: []layers.Layer{
			layers.NewConv2d("c1", 1, 3, 3, 1, 1, false, r),
			layers.NewBatchNorm("bn1", 3),
			neuron.New(),
			layers.NewMaxPool2d(2, 2),
			layers.NewFlatten(),
			layers.NewLinear("fc", 3*3*3, 4, true, r),
		},
	}
	net.SetSmooth(smooth)
	return net
}

func TestNetworkForwardShapes(t *testing.T) {
	r := rng.New(30)
	net := buildTinyNet(3, false, r)
	x := tensor.New(2, 1, 6, 6)
	outs := net.Forward(x, false)
	if len(outs) != 3 {
		t.Fatalf("got %d timestep outputs, want 3", len(outs))
	}
	for _, o := range outs {
		if o.Dim(0) != 2 || o.Dim(1) != 4 {
			t.Fatalf("output shape %v, want [2 4]", o.Shape())
		}
	}
}

func TestNetworkEndToEndGradients(t *testing.T) {
	// Whole-network BPTT vs finite differences, in smooth mode, probing a
	// linear loss on per-timestep outputs.
	r := rng.New(31)
	net := buildTinyNet(3, true, r)
	x := tensor.New(2, 1, 6, 6)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	cs := make([]*tensor.Tensor, net.T)
	for i := range cs {
		cs[i] = tensor.New(2, 4)
		for j := range cs[i].Data {
			cs[i].Data[j] = r.NormFloat32()
		}
	}
	lossOf := func() float64 {
		outs := net.Forward(x, true)
		total := 0.0
		for ti, o := range outs {
			for j, v := range o.Data {
				total += float64(cs[ti].Data[j]) * float64(v)
			}
		}
		return total
	}
	net.ZeroGrads()
	outs := net.Forward(x, true)
	_ = outs
	douts := make([]*tensor.Tensor, net.T)
	for i := range douts {
		douts[i] = cs[i].Clone()
	}
	net.Backward(douts)

	checked := 0
	for _, p := range net.Params() {
		idxs := []int{0, p.W.Size() / 2, p.W.Size() - 1}
		for _, i := range idxs {
			analytic := float64(p.Grad.Data[i])
			const eps = 1e-2
			p.W.Data[i] += eps
			up := lossOf()
			p.W.Data[i] -= 2 * eps
			down := lossOf()
			p.W.Data[i] += eps
			numeric := (up - down) / (2 * eps)
			denom := math.Max(1, math.Abs(numeric))
			if math.Abs(analytic-numeric)/denom > 3e-2 {
				t.Errorf("param %s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 15 {
		t.Fatalf("only %d gradient probes executed", checked)
	}
}

func TestResidualBlockGradients(t *testing.T) {
	r := rng.New(32)
	neuron := snn.NeuronConfig{Alpha: 0.5, Threshold: 0.8, DetachReset: false, Surrogate: snn.ATan{}}
	b := snn.NewResidualBlock("rb", 2, 3, 2, neuron, r)
	b.LIF1.Smooth = true
	b.LIF2.Smooth = true
	// eps below the default: BN statistics over a tiny batch plus the smooth
	// LIF make the probe loss strongly curved, so 1e-2 steps overshoot.
	testutil.GradCheck(t, "residual-projection", b, testutil.GradCheckConfig{InShape: []int{2, 2, 6, 6}, Timesteps: 2, Eps: 3e-3, Tol: 4e-2})
}

func TestResidualBlockIdentityGradients(t *testing.T) {
	r := rng.New(33)
	neuron := snn.NeuronConfig{Alpha: 0.5, Threshold: 0.8, DetachReset: false, Surrogate: snn.ATan{}}
	b := snn.NewResidualBlock("rb", 3, 3, 1, neuron, r)
	if b.SCConv != nil {
		t.Fatal("identity block unexpectedly has a projection shortcut")
	}
	b.LIF1.Smooth = true
	b.LIF2.Smooth = true
	testutil.GradCheck(t, "residual-identity", b, testutil.GradCheckConfig{InShape: []int{2, 3, 5, 5}, Timesteps: 2, Eps: 3e-3, Tol: 4e-2})
}

func TestResidualBlockShapes(t *testing.T) {
	r := rng.New(34)
	neuron := snn.DefaultNeuron()
	b := snn.NewResidualBlock("rb", 4, 8, 2, neuron, r)
	out := b.Forward(tensor.New(2, 4, 8, 8), false)
	want := []int{2, 8, 4, 4}
	for i, d := range want {
		if out.Dim(i) != d {
			t.Fatalf("residual output shape %v, want %v", out.Shape(), want)
		}
	}
}

func TestNetworkSpikeRate(t *testing.T) {
	r := rng.New(35)
	net := buildTinyNet(4, false, r)
	x := tensor.New(2, 1, 6, 6)
	for i := range x.Data {
		x.Data[i] = r.Float32() * 2
	}
	net.Forward(x, false)
	rate := net.SpikeRate()
	if rate < 0 || rate > 1 {
		t.Fatalf("spike rate = %v, want within [0,1]", rate)
	}
	net.ResetSpikeStats()
	if net.SpikeRate() != 0 {
		t.Fatal("spike rate not zero after reset")
	}
}

func TestNetworkWalkVisitsResidualChildren(t *testing.T) {
	r := rng.New(36)
	neuron := snn.DefaultNeuron()
	net := &snn.Network{T: 1, Layers: []layers.Layer{
		snn.NewResidualBlock("rb", 2, 4, 2, neuron, r),
	}}
	count := 0
	net.Walk(func(l layers.Layer) { count++ })
	// Block itself + conv1,bn1,lif1,conv2,bn2,sc,scbn,lif2 = 9.
	if count != 9 {
		t.Fatalf("Walk visited %d layers, want 9", count)
	}
}

func TestMeanOutput(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2}, 1, 2)
	b := tensor.FromSlice([]float32{3, 4}, 1, 2)
	m := snn.MeanOutput([]*tensor.Tensor{a, b})
	if m.Data[0] != 2 || m.Data[1] != 3 {
		t.Fatalf("MeanOutput = %v, want [2 3]", m.Data)
	}
}

func TestDeterministicForward(t *testing.T) {
	build := func() (*snn.Network, *tensor.Tensor) {
		r := rng.New(77)
		net := buildTinyNet(3, false, r)
		x := tensor.New(2, 1, 6, 6)
		rx := rng.New(78)
		for i := range x.Data {
			x.Data[i] = rx.NormFloat32()
		}
		return net, x
	}
	n1, x1 := build()
	n2, x2 := build()
	o1 := n1.Forward(x1, false)
	o2 := n2.Forward(x2, false)
	for t2 := range o1 {
		for i := range o1[t2].Data {
			if o1[t2].Data[i] != o2[t2].Data[i] {
				t.Fatal("identical seeds produced different outputs")
			}
		}
	}
}
