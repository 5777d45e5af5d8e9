package snn

import (
	"ndsnn/internal/layers"
	"ndsnn/internal/metrics"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// LayerWalker is implemented by composite layers (e.g. ResidualBlock) to
// expose their children for introspection (spike probes, parameter census).
type LayerWalker interface {
	WalkLayers(fn func(layers.Layer))
}

// SpikeRecorder is implemented by layers that count emitted spikes.
type SpikeRecorder interface {
	SpikeStats() (sum float64, elems int64)
	ResetSpikeStats()
}

// Network is a sequential spiking network unrolled over T timesteps with
// direct (constant-current) input encoding: the analog input is presented
// identically at every timestep and the first convolution acts as the spike
// encoder, the standard setup for directly-trained deep SNNs.
type Network struct {
	Layers []layers.Layer
	// T is the number of simulation timesteps (the paper uses 5, and 2 for
	// the small-timestep study of Fig. 4).
	T int
	// Encoder transforms the input per timestep; nil means direct
	// (constant-current) encoding, the paper's configuration.
	Encoder InputEncoder
}

// Forward resets temporal state and runs the network time-major through the
// tape execution engine: all T timestep inputs are materialized up front and
// tape.Run drives each layer across the whole sequence, which lets
// Conv2d/Linear fuse the timesteps of a sample into one weight traversal
// each way (sparse.FuseTimesteps / sparse.StackTimesteps). It returns the
// output of the final layer at each timestep. The step-major schedule this
// replaced — timesteps outer, layers inner — is pinned as golden fixtures in
// tape_equiv_test.go; the two orders accumulate identical results for these
// temporally-unrolled feedforward networks.
func (n *Network) Forward(x *tensor.Tensor, train bool) []*tensor.Tensor {
	n.ResetState()
	xs := make([]*tensor.Tensor, n.T)
	for t := 0; t < n.T; t++ {
		h := x
		if n.Encoder != nil {
			h = n.Encoder.Encode(x, t)
		}
		xs[t] = h
	}
	return tape.Run(tapeLayers(n.Layers), xs, train)
}

// Backward runs BPTT. douts[t] is the loss gradient w.r.t. the timestep-t
// output. Layers run in reverse order with all timesteps replayed per layer
// — the order the per-layer tapes and the LIF error recursion expect.
func (n *Network) Backward(douts []*tensor.Tensor) {
	tape.RunBackward(tapeLayers(n.Layers), douts)
}

// tapeLayers adapts the layer slice to the execution engine's interface
// (satisfied structurally; the tape package does not import the layer
// library).
func tapeLayers(ls []layers.Layer) []tape.Layer {
	out := make([]tape.Layer, len(ls))
	for i, l := range ls {
		out[i] = l
	}
	return out
}

// ResetState clears every layer's temporal state and caches.
func (n *Network) ResetState() {
	for _, l := range n.Layers {
		l.Reset()
	}
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*layers.Param {
	var ps []*layers.Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() { layers.ZeroGrads(n.Params()) }

// Walk applies fn to every layer, recursing into composite layers.
func (n *Network) Walk(fn func(layers.Layer)) {
	for _, l := range n.Layers {
		fn(l)
		if w, ok := l.(LayerWalker); ok {
			w.WalkLayers(fn)
		}
	}
}

// SpikeRate returns the average firing probability per neuron per timestep
// across all spiking layers since the last ResetSpikeStats, or 0 if the
// network has no spiking layers or has not run.
func (n *Network) SpikeRate() float64 {
	var sum float64
	var elems int64
	n.Walk(func(l layers.Layer) {
		if rec, ok := l.(SpikeRecorder); ok {
			s, e := rec.SpikeStats()
			sum += s
			elems += e
		}
	})
	if elems == 0 {
		return 0
	}
	return sum / float64(elems)
}

// ResetSpikeStats zeroes all spike counters.
func (n *Network) ResetSpikeStats() {
	n.Walk(func(l layers.Layer) {
		if rec, ok := l.(SpikeRecorder); ok {
			rec.ResetSpikeStats()
		}
	})
}

// EventStats rolls the per-layer event-driven forward counters up into the
// metrics aggregate: measured spike occupancy, event-path coverage and
// column occupancy across every sparse-capable layer since the last
// ResetEventStats. This is the measured side of the efficiency accounting —
// the LIF layers' SpikeStats say how often neurons fired, these counters say
// how much forward work the engine skipped because of it.
func (n *Network) EventStats() metrics.EventStats {
	var es metrics.EventStats
	n.Walk(func(l layers.Layer) {
		if rec, ok := l.(layers.EventRecorder); ok {
			es.Merge(rec.EventStats())
		}
	})
	return es
}

// ResetEventStats zeroes every layer's event-path counters.
func (n *Network) ResetEventStats() {
	n.Walk(func(l layers.Layer) {
		if rec, ok := l.(layers.EventRecorder); ok {
			rec.ResetEventStats()
		}
	})
}

// SetSmooth switches every spiking layer between spiking and smooth mode
// (smooth mode exists for finite-difference gradient verification).
func (n *Network) SetSmooth(smooth bool) {
	n.Walk(func(l layers.Layer) {
		if nl, ok := l.(*LIF); ok {
			nl.Smooth = smooth
		}
	})
}

// MeanOutput averages per-timestep outputs into a single [B,Classes] tensor,
// the rate-decoded prediction.
func MeanOutput(outs []*tensor.Tensor) *tensor.Tensor {
	avg := outs[0].Clone()
	for _, o := range outs[1:] {
		avg.AddInPlace(o)
	}
	avg.Scale(1 / float32(len(outs)))
	return avg
}
