// Package metrics implements the paper's efficiency accounting: the
// spike-rate-weighted relative training-cost model of Section IV-C, an
// event-driven synaptic-operation estimator, and trajectory recording used
// to regenerate Fig. 1 and Fig. 5.
package metrics

import "fmt"

// EpochPoint is one epoch of a training trajectory.
type EpochPoint struct {
	Epoch     int
	Sparsity  float64
	Density   float64
	SpikeRate float64
	TrainAcc  float64
	Loss      float64
}

// Trajectory records per-epoch training state for one run.
type Trajectory struct {
	Label  string
	Points []EpochPoint
}

// Add appends an epoch point.
func (t *Trajectory) Add(p EpochPoint) { t.Points = append(t.Points, p) }

// Sparsities returns the per-epoch sparsity series (Fig. 1's y-axis).
func (t *Trajectory) Sparsities() []float64 {
	out := make([]float64, len(t.Points))
	for i, p := range t.Points {
		out[i] = p.Sparsity
	}
	return out
}

// SpikeRates returns the per-epoch spike-rate series.
func (t *Trajectory) SpikeRates() []float64 {
	out := make([]float64, len(t.Points))
	for i, p := range t.Points {
		out[i] = p.SpikeRate
	}
	return out
}

// Densities returns the per-epoch density series.
func (t *Trajectory) Densities() []float64 {
	out := make([]float64, len(t.Points))
	for i, p := range t.Points {
		out[i] = p.Density
	}
	return out
}

// MeanSparsity returns the average training sparsity, the quantity that
// drives the paper's memory argument (higher average sparsity = cheaper
// training).
func (t *Trajectory) MeanSparsity() float64 {
	if len(t.Points) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range t.Points {
		s += p.Sparsity
	}
	return s / float64(len(t.Points))
}

// RelativeTrainingCost implements Section IV-C: the computation cost of a
// sparse run relative to a dense reference. Epoch i of the sparse run costs
// spikeRate_s[i] × density_s[i]; epoch j of the dense run costs
// spikeRate_d[j]. The relative cost is the ratio of the summed costs, so a
// method that trains for more epochs (e.g. LTH's repeated cycles) pays for
// them. Returns an error if either run is empty.
func RelativeTrainingCost(sparse, dense *Trajectory) (float64, error) {
	if len(sparse.Points) == 0 || len(dense.Points) == 0 {
		return 0, fmt.Errorf("metrics: empty trajectory (sparse %d, dense %d points)", len(sparse.Points), len(dense.Points))
	}
	var num, den float64
	for _, p := range sparse.Points {
		num += p.SpikeRate * p.Density
	}
	for _, p := range dense.Points {
		den += p.SpikeRate * 1.0
	}
	if den == 0 {
		return 0, fmt.Errorf("metrics: dense reference has zero spike activity")
	}
	return num / den, nil
}

// SynapticOps estimates event-driven synaptic operations for processing one
// sample: every active weight fires only when its presynaptic neuron
// spikes, so ops = denseMACs × density × spikeRate × timesteps.
func SynapticOps(denseMACs int64, density, spikeRate float64, timesteps int) float64 {
	return float64(denseMACs) * density * spikeRate * float64(timesteps)
}

// EventStats aggregates the per-layer spike-occupancy counters of the
// event-driven forward engine (layers.EventRecorder, rolled up by
// snn.Network.EventStats). Where SynapticOps predicts skipped work from the
// analytic spikeRate × density model, these counters record what the engine
// actually measured — and therefore actually skipped — at each layer's
// activation matrix.
//
// The counters are cumulative since their last reset, not per-Forward: any
// consumer that reports per-window figures (an epoch, a benchmark iteration)
// must call the network's ResetEventStats at the window start, exactly as
// train.Loop.RunEpoch does, or MeasuredSynOps and friends will silently
// accumulate every Forward since the counters were born.
type EventStats struct {
	// Forwards / EventForwards count sample-timesteps processed vs routed
	// through an event-driven kernel.
	Forwards, EventForwards int64
	// Entries / ActiveEntries count activation-matrix entries inspected on
	// binary inputs vs the subset that were spikes.
	Entries, ActiveEntries int64
}

// Merge accumulates another layer's (or network's) counters into e.
func (e *EventStats) Merge(o EventStats) {
	e.Forwards += o.Forwards
	e.EventForwards += o.EventForwards
	e.Entries += o.Entries
	e.ActiveEntries += o.ActiveEntries
}

// Occupancy returns the measured fraction of activation entries that were
// spikes — the measured counterpart of a trajectory's SpikeRate, and the
// factor by which the event-driven kernels shrink the forward work.
func (e EventStats) Occupancy() float64 {
	if e.Entries == 0 {
		return 0
	}
	return float64(e.ActiveEntries) / float64(e.Entries)
}

// EventCoverage returns the fraction of sample-timesteps that ran
// event-driven.
func (e EventStats) EventCoverage() float64 {
	if e.Forwards == 0 {
		return 0
	}
	return float64(e.EventForwards) / float64(e.Forwards)
}

// MeasuredSynOps is SynapticOps with the engine's measured spike occupancy
// substituted for the analytic spike rate: the synaptic-operation count the
// dual-sparse forward actually performed, rather than the one the cost model
// predicts. Pass counters covering exactly one report window (see the
// EventStats reset discipline above); occupancy is a ratio, so mixing
// windows skews it toward whichever saw more traffic.
func MeasuredSynOps(denseMACs int64, density float64, e EventStats, timesteps int) float64 {
	return SynapticOps(denseMACs, density, e.Occupancy(), timesteps)
}

// Confusion builds a confusion matrix from predictions.
func Confusion(classes int, preds, labels []int) [][]int {
	m := make([][]int, classes)
	for i := range m {
		m[i] = make([]int, classes)
	}
	for i, p := range preds {
		if p >= 0 && p < classes && labels[i] >= 0 && labels[i] < classes {
			m[labels[i]][p]++
		}
	}
	return m
}
