package snn_test

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"ndsnn/internal/layers"
	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
	"ndsnn/internal/testutil"
)

// The acceptance property of the time-major tape engine: forward outputs and
// every parameter gradient must reproduce recorded golden fixtures within
// 1e-5, across sparse-gradient modes, cache encodings (dense and event) and
// architectures (sequential and residual), with the final Linear replayed
// as Conv2d's 1×1 case. The fixtures were recorded from the step-major
// dense-cache loop — the original reference engine, deleted once these
// goldens pinned its behavior. Re-record with -update only after an
// intentional numeric change (that records from the current dense-cache
// time-major engine).

// buildEquivNet constructs a masked spiking stack of soft-reset LIF neurons
// deterministically from seed. kind is "plain", "residual" or "wide". In
// "wide", c2's dense weight gradient is larger than the conv backward's
// partial-gradient budget, so its samples are reduced in windows.
func buildEquivNet(seed uint64, kind string) *snn.Network {
	r := rng.New(seed)
	neuron := snn.DefaultNeuron()
	mask := func(p *layers.Param, density float64, mr *rng.RNG) {
		p.Mask = tensor.New(p.W.Shape()...)
		for i := range p.Mask.Data {
			if mr.Float64() < density {
				p.Mask.Data[i] = 1
			}
		}
		p.ApplyMask()
	}
	switch kind {
	case "plain":
		c1 := layers.NewConv2d("c1", 3, 6, 3, 1, 1, false, r)
		c2 := layers.NewConv2d("c2", 6, 6, 3, 1, 1, true, r)
		fc := layers.NewLinear("fc", 6*6*6, 5, true, r)
		mr := rng.New(seed * 7)
		mask(c1.Weight, 0.1, mr)
		mask(c2.Weight, 0.1, mr)
		mask(fc.Weight, 0.1, mr)
		return &snn.Network{
			Layers: []layers.Layer{
				c1, neuron.New(),
				c2, neuron.New(),
				layers.NewFlatten(), fc,
			},
			T: 4,
		}
	case "wide":
		c1 := layers.NewConv2d("c1", 3, 256, 3, 2, 1, false, r)
		c2 := layers.NewConv2d("c2", 256, 256, 3, 2, 1, true, r)
		fc := layers.NewLinear("fc", 256*2*2, 5, true, r)
		mr := rng.New(seed * 7)
		mask(c1.Weight, 0.1, mr)
		mask(c2.Weight, 0.1, mr)
		mask(fc.Weight, 0.1, mr)
		return &snn.Network{
			Layers: []layers.Layer{
				c1, neuron.New(),
				c2, neuron.New(),
				layers.NewFlatten(), fc,
			},
			T: 4,
		}
	case "residual":
		c1 := layers.NewConv2d("c1", 3, 6, 3, 1, 1, false, r)
		blk := snn.NewResidualBlock("b1", 6, 8, 2, neuron, r)
		fc := layers.NewLinear("fc", 8*3*3, 5, false, r)
		mr := rng.New(seed * 7)
		mask(c1.Weight, 0.1, mr)
		mask(blk.Conv1.Weight, 0.1, mr)
		mask(blk.Conv2.Weight, 0.1, mr)
		mask(fc.Weight, 0.1, mr)
		return &snn.Network{
			Layers: []layers.Layer{
				c1, neuron.New(),
				blk,
				layers.NewFlatten(), fc,
			},
			T: 4,
		}
	}
	panic("unknown kind " + kind)
}

// runEquivNet runs one forward+backward on deterministic data and returns
// the per-timestep outputs and all parameter gradients.
func runEquivNet(net *snn.Network, seed uint64, sparseGrad bool) ([]*tensor.Tensor, []*tensor.Tensor) {
	r := rng.New(seed * 13)
	x := tensor.New(3, 3, 6, 6)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	for _, p := range net.Params() {
		p.SparseGradOK = sparseGrad
	}
	outs := net.Forward(x, true)
	douts := make([]*tensor.Tensor, len(outs))
	for t, o := range outs {
		douts[t] = tensor.New(o.Shape()...)
		for i := range douts[t].Data {
			douts[t].Data[i] = r.NormFloat32()
		}
	}
	net.ZeroGrads()
	net.Backward(douts)
	var grads []*tensor.Tensor
	for _, p := range net.Params() {
		grads = append(grads, p.Grad)
	}
	return outs, grads
}

func equivFixturePath(kind string) string {
	return filepath.Join("testdata", fmt.Sprintf("tape_equiv_%s_soft.json", kind))
}

// equivTensors names one run's results for fixture storage: outputs by
// timestep, gradients by parameter index and name.
func equivTensors(outs, grads []*tensor.Tensor, params []*layers.Param) map[string]*tensor.Tensor {
	m := make(map[string]*tensor.Tensor, len(outs)+len(grads))
	for t, o := range outs {
		m[fmt.Sprintf("out.%d", t)] = o
	}
	for i, g := range grads {
		m[fmt.Sprintf("grad.%d.%s", i, params[i].Name)] = g
	}
	return m
}

// maskGrads projects a fixture's gradient tensors onto each parameter's
// active-weight mask (unmasked parameters pass through), the subset a
// sparse-gradient run computes.
func maskGrads(want map[string]*tensor.Tensor, params []*layers.Param) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(want))
	for name, w := range want {
		out[name] = w
	}
	for i, p := range params {
		if p.Mask == nil {
			continue
		}
		name := fmt.Sprintf("grad.%d.%s", i, p.Name)
		g := want[name].Clone()
		for j := range g.Data {
			g.Data[j] *= p.Mask.Data[j]
		}
		out[name] = g
	}
	return out
}

func TestTapeMatchesGoldenFixtures(t *testing.T) {
	oldD, oldR := layers.CSRMaxDensity, layers.EventMaxRate
	layers.CSRMaxDensity, layers.EventMaxRate = 1, 1
	defer func() { layers.CSRMaxDensity, layers.EventMaxRate = oldD, oldR }()

	const seed = uint64(97)
	for _, kind := range []string{"plain", "residual"} {
		path := equivFixturePath(kind)
		if testutil.UpdateFixtures() {
			old := tape.CacheEvents
			tape.CacheEvents = false
			net := buildEquivNet(seed, kind)
			outs, grads := runEquivNet(net, seed, false)
			tape.CacheEvents = old
			testutil.WriteFixture(t, path,
				"dense-cache reference run of buildEquivNet(seed 97): per-timestep outputs and parameter gradients (originally recorded from the step-major loop, since deleted)",
				equivTensors(outs, grads, net.Params()))
			for _, p := range net.Params() {
				p.InvalidateCSR()
			}
		}
		want := testutil.ReadFixture(t, path)

		// Every engine mode must agree with the same golden: dense and
		// event-encoded caches, dense and active-position-only gradients.
		// Sparse-grad mode skips masked-out positions entirely (they stay
		// zero), so it is compared against the mask-projected fixture —
		// equivalence at every position the mode promises to compute.
		for _, sparseGrad := range []bool{false, true} {
			for _, events := range []bool{false, true} {
				label := fmt.Sprintf("%s/sparseGrad=%v/events=%v", kind, sparseGrad, events)
				old := tape.CacheEvents
				tape.CacheEvents = events
				net := buildEquivNet(seed, kind)
				outs, grads := runEquivNet(net, seed, sparseGrad)
				tape.CacheEvents = old
				ref := want
				if sparseGrad {
					ref = maskGrads(want, net.Params())
				}
				testutil.CompareFixture(t, label, ref, equivTensors(outs, grads, net.Params()), 1e-5)
				for _, p := range net.Params() {
					p.InvalidateCSR()
				}
			}
		}
	}
}

// TestGradientsIndependentOfGOMAXPROCS pins training numerics to be
// independent of the host's core count: outputs and every parameter gradient
// must equal the GOMAXPROCS=1 run bit for bit at any thread budget, for
// every buildEquivNet kind with dense and active-position-only gradients.
func TestGradientsIndependentOfGOMAXPROCS(t *testing.T) {
	oldD, oldR := layers.CSRMaxDensity, layers.EventMaxRate
	layers.CSRMaxDensity, layers.EventMaxRate = 1, 1
	defer func() { layers.CSRMaxDensity, layers.EventMaxRate = oldD, oldR }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	const seed = uint64(97)
	run := func(procs int, kind string, sparseGrad bool) []*tensor.Tensor {
		runtime.GOMAXPROCS(procs)
		outs, grads := runEquivNet(buildEquivNet(seed, kind), seed, sparseGrad)
		return append(outs, grads...)
	}
	for _, kind := range []string{"plain", "residual", "wide"} {
		for _, sparseGrad := range []bool{false, true} {
			want := run(1, kind, sparseGrad)
			for _, procs := range []int{2, 3, 4} {
				got := run(procs, kind, sparseGrad)
				diff, total := 0, 0
				for i := range want {
					for j, v := range want[i].Data {
						total++
						if math.Float32bits(v) != math.Float32bits(got[i].Data[j]) {
							diff++
						}
					}
				}
				if diff > 0 {
					t.Errorf("%s/sparseGrad=%v: GOMAXPROCS=%d differs from GOMAXPROCS=1 in %d of %d values", kind, sparseGrad, procs, diff, total)
				}
			}
		}
	}
}

// TestTapeCachesAreEventEncoded pins the memory story: during a training
// forward over binary spike activations, the tape retains event-encoded
// caches that are measurably smaller than the dense baseline's.
func TestTapeCachesAreEventEncoded(t *testing.T) {
	oldD, oldR := layers.CSRMaxDensity, layers.EventMaxRate
	layers.CSRMaxDensity, layers.EventMaxRate = 1, 1
	defer func() { layers.CSRMaxDensity, layers.EventMaxRate = oldD, oldR }()

	seed := uint64(131)
	measure := func(events bool) int64 {
		old := tape.CacheEvents
		tape.CacheEvents = events
		defer func() { tape.CacheEvents = old }()
		net := buildEquivNet(seed, "plain")
		base := tape.CacheBytes()
		r := rng.New(seed * 13)
		x := tensor.New(3, 3, 6, 6)
		for i := range x.Data {
			x.Data[i] = r.NormFloat32()
		}
		net.Forward(x, true)
		retained := tape.CacheBytes() - base
		net.ResetState() // release the caches
		for _, p := range net.Params() {
			p.InvalidateCSR()
		}
		if got := tape.CacheBytes(); got != base {
			t.Fatalf("ResetState leaked %d tape bytes", got-base)
		}
		return retained
	}
	dense := measure(false)
	tape1 := measure(true)
	if tape1 >= dense {
		t.Fatalf("event caches (%d B) not smaller than dense caches (%d B)", tape1, dense)
	}
}
