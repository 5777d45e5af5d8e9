package snn_test

import (
	"testing"

	"ndsnn/internal/layers"
	"ndsnn/internal/metrics"
	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// TestNetworkEventStatsAggregation runs a conv→LIF→conv spiking stack and
// checks that the second convolution — whose input is the LIF's binary
// spike train — is routed through the event-driven kernel and that the
// network-level rollup reflects it.
func TestNetworkEventStatsAggregation(t *testing.T) {
	oldD, oldR := layers.CSRMaxDensity, layers.EventMaxRate
	layers.CSRMaxDensity, layers.EventMaxRate = 1, 1
	defer func() { layers.CSRMaxDensity, layers.EventMaxRate = oldD, oldR }()

	r := rng.New(301)
	c1 := layers.NewConv2d("c1", 2, 4, 3, 1, 1, false, r)
	c2 := layers.NewConv2d("c2", 4, 4, 3, 1, 1, false, r)
	for _, l := range []*layers.Conv2d{c1, c2} {
		l.Weight.Mask = tensor.New(l.Weight.W.Shape()...)
		for i := range l.Weight.Mask.Data {
			if r.Float64() < 0.3 {
				l.Weight.Mask.Data[i] = 1
			}
		}
		l.Weight.ApplyMask()
	}
	net := &snn.Network{
		Layers: []layers.Layer{c1, snn.DefaultNeuron().New(), c2},
		T:      3,
	}
	x := tensor.New(2, 2, 5, 5)
	for i := range x.Data {
		x.Data[i] = 2 * r.Float32()
	}
	net.Forward(x, false)

	es := net.EventStats()
	// Both convs are sparse-capable: 2 samples × 3 timesteps × 2 layers.
	if es.Forwards != 12 {
		t.Fatalf("aggregate Forwards = %d, want 12", es.Forwards)
	}
	// c1 sees analog input (direct encoding) and must not take the event
	// path; c2 sees LIF spikes and must.
	if st := c1.EventStats(); st.EventForwards != 0 {
		t.Fatalf("encoder conv took the event path %d times on analog input", st.EventForwards)
	}
	if st := c2.EventStats(); st.EventForwards != st.Forwards {
		t.Fatalf("spike-fed conv took the event path %d of %d times", st.EventForwards, st.Forwards)
	}
	if es.EventCoverage() != 0.5 {
		t.Fatalf("aggregate coverage %v, want 0.5", es.EventCoverage())
	}
	if es.Occupancy() <= 0 || es.Occupancy() > 1 {
		t.Fatalf("aggregate occupancy %v outside (0,1]", es.Occupancy())
	}

	net.ResetEventStats()
	if es := net.EventStats(); es != (metrics.EventStats{}) {
		t.Fatalf("counters after reset: %+v", es)
	}
	c1.Weight.InvalidateCSR()
	c2.Weight.InvalidateCSR()
}

// TestEventPathEngagesAtDefaultGates runs a masked conv→LIF→conv→LIF→linear
// stack at 10% weight density on analog input under the default CSR and
// event gates: the spike-fed layers must route some sample-timesteps
// through the event-driven kernels without any gate being forced.
func TestEventPathEngagesAtDefaultGates(t *testing.T) {
	r := rng.New(96)
	c1 := layers.NewConv2d("c1", 3, 16, 3, 1, 1, false, r)
	c2 := layers.NewConv2d("c2", 16, 16, 3, 1, 1, false, r)
	fc := layers.NewLinear("fc", 16*8*8, 10, false, r)
	for _, p := range []*layers.Param{c1.Weight, c2.Weight, fc.Weight} {
		p.Mask = sparse.RandomMask(p.W.Shape(), 0.1, r)
		p.ApplyMask()
	}
	net := &snn.Network{
		Layers: []layers.Layer{
			c1, snn.DefaultNeuron().New(),
			c2, snn.DefaultNeuron().New(),
			layers.NewFlatten(), fc,
		},
		T: 5,
	}
	x := tensor.New(4, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	net.Forward(x, false)
	if es := net.EventStats(); es.EventCoverage() <= 0 {
		t.Fatalf("event path never engaged at the default gates: coverage %v, occupancy %v", es.EventCoverage(), es.Occupancy())
	}
}
