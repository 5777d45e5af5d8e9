package snn

import (
	"ndsnn/internal/layers"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// NeuronConfig carries the LIF hyperparameters shared by all neurons in a
// model.
type NeuronConfig struct {
	// Alpha is the membrane decay constant in (0,1]; the paper's α.
	Alpha float32
	// Threshold is the firing threshold ϑ.
	Threshold float32
	// DetachReset stops gradients from flowing through the reset term
	// (the usual stabilization in surrogate-gradient training).
	DetachReset bool
	// HardReset switches from the paper's soft (subtractive) reset to a
	// multiplicative reset v[t] = α·v[t-1]·(1-o[t-1]) + I[t], the other
	// common LIF formulation (e.g. SpikingJelly's default).
	HardReset bool
	// Surrogate is the Heaviside-derivative approximation; nil means ATan.
	Surrogate Surrogate
}

// DefaultNeuron returns the paper's configuration: α=0.5, ϑ=1, detached
// reset, arctangent surrogate.
func DefaultNeuron() NeuronConfig {
	return NeuronConfig{Alpha: 0.5, Threshold: 1, DetachReset: true, Surrogate: ATan{}}
}

func (c NeuronConfig) surrogate() Surrogate {
	if c.Surrogate == nil {
		return ATan{}
	}
	return c.Surrogate
}

// New constructs a LIF layer from the configuration.
func (c NeuronConfig) New() *LIF {
	return &LIF{Config: c}
}

// LIF is a layer of Leaky Integrate-and-Fire neurons with soft (subtractive)
// reset. Forward implements Eq. (1); Backward implements the surrogate BPTT
// recursion of Eq. (2):
//
//	ε[t] = δ[t]·φ(v[t]-ϑ) + α·ε[t+1]
//
// where δ[t] is the incoming output gradient (plus the reset pathway when
// DetachReset is false) and ε[t] = ∂L/∂v[t] is both what flows to the
// previous timestep and, because v[t] is linear in the input current, the
// gradient returned to the upstream layer.
//
// Smooth mode replaces the Heaviside output with the surrogate's primitive,
// making forward and backward exactly consistent; it exists so the entire
// BPTT machinery can be validated against finite differences in tests.
type LIF struct {
	Config NeuronConfig
	// Smooth switches the forward nonlinearity to the surrogate primitive.
	Smooth bool

	v     *tensor.Tensor // membrane potential after the current timestep
	oPrev *tensor.Tensor // previous timestep's spikes (for the reset term)
	vs    []*tensor.Tensor
	// os tapes the per-timestep outputs needed by the hard-reset backward;
	// spiking-mode outputs are binary and get event-encoded (~spikeRate of
	// the dense footprint), smooth-mode outputs stay dense automatically.
	os    tape.Stack
	gNext *tensor.Tensor // ε[t+1] carried between Backward calls

	spikeSum   float64
	spikeElems int64
}

// Forward integrates one timestep and emits spikes.
func (l *LIF) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if l.v == nil || l.v.Size() != x.Size() {
		l.v = tensor.New(x.Shape()...)
		l.oPrev = tensor.New(x.Shape()...)
	}
	cfg := l.Config
	sur := cfg.surrogate()
	vNew := tensor.New(x.Shape()...)
	out := tensor.New(x.Shape()...)
	vd, od, xd := vNew.Data, out.Data, x.Data
	pv, po := l.v.Data, l.oPrev.Data
	integrate := func(i int) float32 {
		if cfg.HardReset {
			return cfg.Alpha*pv[i]*(1-po[i]) + xd[i]
		}
		return cfg.Alpha*pv[i] + xd[i] - cfg.Threshold*po[i]
	}
	var sum float64
	if l.Smooth {
		for i := range xd {
			v := integrate(i)
			vd[i] = v
			o := sur.Primitive(v - cfg.Threshold)
			od[i] = o
			sum += float64(o)
		}
	} else {
		for i := range xd {
			v := integrate(i)
			vd[i] = v
			if v >= cfg.Threshold {
				od[i] = 1
				sum++
			}
		}
	}
	l.spikeSum += sum
	l.spikeElems += int64(len(xd))
	l.v = vNew
	l.oPrev = out
	if train {
		l.vs = append(l.vs, vNew)
		if cfg.HardReset {
			l.os.Push(out)
		}
	}
	return out
}

// Backward propagates the temporal error recursion for one timestep.
func (l *LIF) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(l.vs) == 0 {
		panic("snn: LIF.Backward called with no cached timestep")
	}
	v := l.vs[len(l.vs)-1]
	l.vs = l.vs[:len(l.vs)-1]
	cfg := l.Config
	sur := cfg.surrogate()
	g := tensor.New(dy.Shape()...)
	gd, dyd, vd := g.Data, dy.Data, v.Data
	var gn []float32
	if l.gNext != nil && l.gNext.Size() == dy.Size() {
		gn = l.gNext.Data
	}
	var od []float32
	if cfg.HardReset {
		if l.os.Len() == 0 {
			panic("snn: hard-reset LIF missing cached outputs")
		}
		od = l.os.Pop().Materialize().Data
	}
	for i := range dyd {
		do := dyd[i]
		var next float32
		if gn != nil {
			next = gn[i]
		}
		decay := cfg.Alpha
		if cfg.HardReset {
			// v[t+1] = α·v[t]·(1-o[t]) + I[t+1]: the membrane path decays
			// by α(1-o[t]) and, when the reset is not detached, o[t]
			// additionally receives -α·v[t]·ε[t+1].
			decay *= 1 - od[i]
			if !cfg.DetachReset {
				do -= cfg.Alpha * vd[i] * next
			}
		} else if !cfg.DetachReset {
			do -= cfg.Threshold * next
		}
		phi := sur.Grad(vd[i] - cfg.Threshold)
		gd[i] = do*phi + decay*next
	}
	l.gNext = g
	return g
}

// Params returns nil; LIF has no trainable parameters.
func (l *LIF) Params() []*layers.Param { return nil }

// Reset clears membrane state, caches and the carried error signal.
func (l *LIF) Reset() {
	l.v = nil
	l.oPrev = nil
	l.vs = nil
	l.os.Clear()
	l.gNext = nil
}

// SpikeStats returns the total spikes emitted and neuron-timestep count
// since the last ResetSpikeStats.
func (l *LIF) SpikeStats() (sum float64, elems int64) { return l.spikeSum, l.spikeElems }

// ResetSpikeStats zeroes the spike counters.
func (l *LIF) ResetSpikeStats() {
	l.spikeSum = 0
	l.spikeElems = 0
}
