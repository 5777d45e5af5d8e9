package infer

import (
	"fmt"
	"math"
	"testing"

	"ndsnn/internal/models"
	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
	"ndsnn/internal/testutil"
)

// everyStagePass is a pass without the time-invariant prefix: every stage
// runs at every timestep, on an input event list rebuilt each timestep. It
// is the oracle the prefix-hoisting passes must match bit for bit, SynOps
// included.
func everyStagePass(e *Engine, sample *tensor.Tensor) ([]float32, int64) {
	sc := e.NewScratch()
	sc.begin()
	in := &sc.input
	in.shape = appendShape(nil, sample)
	in.data = sample.Data
	var avg []float32
	for t := 0; t < e.T; t++ {
		in.refreshEvents()
		cur := in
		for _, s := range e.stages {
			cur = s.step(sc, cur)
		}
		if avg == nil {
			avg = make([]float32, len(cur.data))
		}
		for i, v := range cur.data {
			avg[i] += v
		}
	}
	inv := 1 / float32(e.T)
	for i := range avg {
		avg[i] *= inv
	}
	return avg, sc.synOps
}

// prefixOps returns the accumulates of one evaluation of e's prefix.
func prefixOps(e *Engine, sample *tensor.Tensor) int64 {
	sc := e.NewScratch()
	in := &sc.input
	in.shape = appendShape(nil, sample)
	in.data = sample.Data
	in.refreshEvents()
	cur := in
	for _, s := range e.stages[:e.prefix] {
		cur = s.step(sc, cur)
	}
	return sc.synOps
}

func assertBitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s score %d: %v, every-stage reference %v (must be bit-identical)", what, i, got[i], want[i])
		}
	}
}

// TestPrefixHoistMatchesEveryStagePass pins the time-invariant prefix: Infer
// and the stage-major InferBatch evaluate the stages ahead of the first
// stateful stage once per pass, and must reproduce the every-stage pass bit
// for bit with exactly its SynOps, on float32, int8 and fully-integer
// engines of a plain, a residual and a deep network at the paper's T=5.
func TestPrefixHoistMatchesEveryStagePass(t *testing.T) {
	const T = 5
	nets := []struct {
		name string
		hw   int
		net  func() *snn.Network
	}{
		{"tinynet", 16, func() *snn.Network { return testutil.TinyNet(4, T, 71) }},
		{"resnet19", 16, func() *snn.Network {
			return models.Build(models.Config{Arch: "resnet19", Classes: 4, InC: 3, InH: 16, InW: 16,
				Timesteps: T, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 72})
		}},
		{"vgg16", 32, func() *snn.Network {
			return models.Build(models.Config{Arch: "vgg16", Classes: 4, InC: 3, InH: 32, InW: 32,
				Timesteps: T, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 73})
		}},
	}
	engines := []struct {
		name    string
		prefix  int
		compile func(*snn.Network) (*Engine, error)
	}{
		{"float32", 1, Compile},
		{"int8", 1, func(n *snn.Network) (*Engine, error) { return CompileQuantized(n, 8) }},
		// The input requant boundary plus the first (integer) conv.
		{"fullint", 2, func(n *snn.Network) (*Engine, error) {
			return CompileQuantizedConfig(n, QuantConfig{WeightBits: 8, FullInteger: true})
		}},
	}
	for _, nc := range nets {
		r := rng.New(uint64(nc.hw))
		samples := make([]*tensor.Tensor, 3)
		for i := range samples {
			x := tensor.New(3, nc.hw, nc.hw)
			for j := range x.Data {
				x.Data[j] = r.Float32()
			}
			samples[i] = x
		}
		net := nc.net()
		for _, ec := range engines {
			t.Run(fmt.Sprintf("%s/%s", nc.name, ec.name), func(t *testing.T) {
				eng, err := ec.compile(net)
				if err != nil {
					t.Fatal(err)
				}
				if eng.prefix != ec.prefix {
					t.Fatalf("prefix has %d stages, want %d", eng.prefix, ec.prefix)
				}
				wants := make([][]float32, len(samples))
				var wantOps int64
				for i, s := range samples {
					want, ops := everyStagePass(eng, s)
					if ops <= T*prefixOps(eng, s) {
						t.Fatalf("sample %d: no accumulates past the prefix; the oracle would not exercise the spiking stages", i)
					}
					wants[i] = want
					wantOps += ops

					eng.ResetStats()
					assertBitsEqual(t, fmt.Sprintf("Infer sample %d", i), eng.Infer(s), want)
					if eng.SynOps() != ops {
						t.Fatalf("Infer sample %d: SynOps %d, every-stage reference %d", i, eng.SynOps(), ops)
					}
				}
				eng.ResetStats()
				got := eng.InferBatch(samples)
				for i := range samples {
					assertBitsEqual(t, fmt.Sprintf("InferBatch sample %d", i), got[i], wants[i])
				}
				if eng.SynOps() != wantOps {
					t.Fatalf("InferBatch: SynOps %d, every-stage reference %d", eng.SynOps(), wantOps)
				}
			})
		}
	}
}
