// Package train provides the epoch/batch training machinery shared by the
// NDSNN trainer and every baseline: shuffled mini-batch SGD over an SNN with
// rate-decoded cross-entropy, per-epoch statistics (loss, accuracy, spike
// rate, sparsity), evaluation, and hook points where sparse methods attach
// their mask-update logic.
package train

import (
	"fmt"
	"time"

	"ndsnn/internal/data"
	"ndsnn/internal/layers"
	"ndsnn/internal/loss"
	"ndsnn/internal/opt"
	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/tape"
)

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch     int
	Loss      float64
	TrainAcc  float64
	SpikeRate float64
	Sparsity  float64
	LR        float64
	Steps     int
	// Occupancy is the spike occupancy the event-driven engine measured over
	// this epoch's activation matrices (0 when no sparse-capable layer ran
	// event-aware). The engine counters are reset at every epoch start, so
	// this — and anything derived from it, e.g. metrics.MeasuredSynOps — is
	// a per-epoch figure rather than a running total.
	Occupancy float64
	// PeakCacheBytes is the high-water mark of BPTT activation-cache memory
	// (tape.PeakBytes) over the epoch: the measured training-memory cost the
	// sparse temporal tape shrinks.
	PeakCacheBytes int64
	// Phase wall-clock totals for the epoch — data-batch assembly, forward
	// (incl. loss), backward (ZeroGrads+BPTT+grad hooks) and optimizer step.
	// Populated only while train.Metrics is attached; zero otherwise, so the
	// unmetered loop carries no per-batch clock reads.
	DataNS, ForwardNS, BackwardNS, OptimNS int64
}

// Hooks are optional callbacks invoked by the loop.
type Hooks struct {
	// OnBatchStart runs before each batch's forward pass with the step index
	// that batch will become (Step()+1). Sparse trainers use it to decide,
	// per batch, whether the backward pass may restrict weight gradients to
	// active positions or must stay dense for an upcoming growth decision.
	OnBatchStart func(step int)
	// OnGradsReady runs after backprop but before the optimizer step, so a
	// method can add regularizer gradients (ADMM's ρ(W−Z+U) term).
	OnGradsReady func(step int)
	// OnStep runs after every optimizer step with the global step index
	// (sparse methods trigger drop-and-grow here, matching the paper's
	// per-iteration ΔT schedule).
	OnStep func(step int)
	// OnEpochEnd runs after each epoch's statistics are finalized.
	OnEpochEnd func(stats EpochStats)
}

// Loop trains a network for a fixed number of epochs.
type Loop struct {
	Net       *snn.Network
	Dataset   *data.Dataset
	Opt       *opt.SGD
	Schedule  opt.Schedule
	BatchSize int
	Epochs    int
	// MaxBatches caps batches per epoch (0 = no cap); scaled benches use it
	// to bound runtime without changing the schedule semantics.
	MaxBatches int
	Rng        *rng.RNG
	Hooks      Hooks

	step int
}

// Step returns the number of optimizer steps taken so far.
func (l *Loop) Step() int { return l.step }

// StepsPerEpoch returns how many optimizer steps one epoch performs.
func (l *Loop) StepsPerEpoch() int {
	n := (l.Dataset.Train.N() + l.BatchSize - 1) / l.BatchSize
	if l.MaxBatches > 0 && n > l.MaxBatches {
		n = l.MaxBatches
	}
	return n
}

// Run trains for Epochs epochs and returns per-epoch statistics. It fails
// fast with an error if the loss or any parameter diverges to NaN/Inf.
func (l *Loop) Run() ([]EpochStats, error) {
	if l.BatchSize <= 0 {
		return nil, fmt.Errorf("train: batch size %d", l.BatchSize)
	}
	var history []EpochStats
	for epoch := 0; epoch < l.Epochs; epoch++ {
		stats, err := l.RunEpoch(epoch)
		if err != nil {
			return history, err
		}
		history = append(history, stats)
	}
	return history, nil
}

// RunEpoch trains a single epoch (callers composing multi-phase schedules,
// e.g. LTH cycles, drive this directly).
func (l *Loop) RunEpoch(epoch int) (EpochStats, error) {
	lr := l.Schedule.At(epoch)
	l.Opt.LR = lr
	l.Net.ResetSpikeStats()
	// The event-path counters are cumulative since their last reset; without
	// this, per-epoch reports (measured occupancy, MeasuredSynOps) would
	// silently accumulate across every Forward of the run.
	l.Net.ResetEventStats()
	tape.ResetPeak()
	batches := data.ShuffledBatches(l.Dataset.Train.N(), l.BatchSize, l.Rng)
	if l.MaxBatches > 0 && len(batches) > l.MaxBatches {
		batches = batches[:l.MaxBatches]
	}
	var totalLoss float64
	correct, seen := 0, 0
	params := l.Net.Params()
	tm := attachMeters(Metrics)
	var epochStart, t0 time.Time
	var dataNS, forwardNS, backwardNS, optimNS int64
	if tm != nil {
		epochStart = time.Now()
	}
	// tick advances the phase clock and returns the elapsed segment; only
	// called when tm != nil, so the unmetered loop reads no clocks.
	tick := func() int64 {
		now := time.Now()
		d := now.Sub(t0).Nanoseconds()
		t0 = now
		return d
	}
	for _, idxs := range batches {
		if l.Hooks.OnBatchStart != nil {
			l.Hooks.OnBatchStart(l.step + 1)
		}
		if tm != nil {
			t0 = time.Now()
		}
		x, labels := l.Dataset.Batch(&l.Dataset.Train, idxs)
		if tm != nil {
			d := tick()
			dataNS += d
			tm.data.Record(d)
		}
		outs := l.Net.Forward(x, true)
		batchLoss, grads := loss.CrossEntropyRate(outs, labels)
		totalLoss += batchLoss * float64(len(idxs))
		correct += loss.CountCorrect(outs, labels)
		seen += len(idxs)
		if tm != nil {
			d := tick()
			forwardNS += d
			tm.forward.Record(d)
		}
		l.Net.ZeroGrads()
		l.Net.Backward(grads)
		if l.Hooks.OnGradsReady != nil {
			l.Hooks.OnGradsReady(l.step + 1)
		}
		if tm != nil {
			d := tick()
			backwardNS += d
			tm.backward.Record(d)
		}
		l.Opt.Step(params)
		l.step++
		if tm != nil {
			d := tick()
			optimNS += d
			tm.optim.Record(d)
		}
		if l.Hooks.OnStep != nil {
			l.Hooks.OnStep(l.step)
		}
	}
	if tm != nil {
		tm.epoch.Record(time.Since(epochStart).Nanoseconds())
	}
	if seen == 0 {
		return EpochStats{}, fmt.Errorf("train: epoch %d saw no data", epoch)
	}
	stats := EpochStats{
		Epoch:          epoch,
		Loss:           totalLoss / float64(seen),
		TrainAcc:       float64(correct) / float64(seen),
		SpikeRate:      l.Net.SpikeRate(),
		Sparsity:       layers.GlobalSparsity(layers.PrunableParams(params)),
		LR:             lr,
		Steps:          len(batches),
		Occupancy:      l.Net.EventStats().Occupancy(),
		PeakCacheBytes: tape.PeakBytes(),
		DataNS:         dataNS,
		ForwardNS:      forwardNS,
		BackwardNS:     backwardNS,
		OptimNS:        optimNS,
	}
	for _, p := range params {
		if p.W.HasNaN() {
			return stats, fmt.Errorf("train: parameter %s diverged (NaN/Inf) at epoch %d", p.Name, epoch)
		}
	}
	if l.Hooks.OnEpochEnd != nil {
		l.Hooks.OnEpochEnd(stats)
	}
	return stats, nil
}

// Evaluate returns classification accuracy on a split.
func Evaluate(net *snn.Network, d *data.Dataset, split *data.Split, batchSize int) float64 {
	if split.N() == 0 {
		return 0
	}
	correct := 0
	for _, idxs := range data.SequentialBatches(split.N(), batchSize) {
		x, labels := d.Batch(split, idxs)
		outs := net.Forward(x, false)
		correct += loss.CountCorrect(outs, labels)
	}
	return float64(correct) / float64(split.N())
}
