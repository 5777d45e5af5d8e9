package train_test

import (
	"testing"

	"ndsnn/internal/obs"
	"ndsnn/internal/tape"
	"ndsnn/internal/train"
)

// TestLoopPeakBytesDoubleResetSafe is the double-reset regression: RunEpoch
// resets the tape peak meter itself, and a caller defensively calling
// tape.ResetPeak() between epochs must not change what the next epoch
// reports. Both epochs run the same batch partition, so their high-water
// marks are identical byte counts.
func TestLoopPeakBytesDoubleResetSafe(t *testing.T) {
	// Reference: two epochs, no caller intervention.
	ref, _ := newLoop(2, 0)
	refStats0, err := ref.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	refStats1, err := ref.RunEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if refStats0.PeakCacheBytes <= 0 || refStats1.PeakCacheBytes <= 0 {
		t.Fatalf("reference peaks not recorded: %d, %d", refStats0.PeakCacheBytes, refStats1.PeakCacheBytes)
	}

	// Same run (identical seeds, deterministic training), but the caller
	// defensively zeroes the meter between epochs — the "double reset".
	// Reported peaks must be identical to the reference.
	loop, _ := newLoop(2, 0)
	stats0, err := loop.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	tape.ResetPeak()
	stats1, err := loop.RunEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if stats0.PeakCacheBytes != refStats0.PeakCacheBytes || stats1.PeakCacheBytes != refStats1.PeakCacheBytes {
		t.Fatalf("manual ResetPeak changed reporting: got %d/%d, want %d/%d",
			stats0.PeakCacheBytes, stats1.PeakCacheBytes, refStats0.PeakCacheBytes, refStats1.PeakCacheBytes)
	}
}

// TestLoopPhaseTimings: with train.Metrics attached, RunEpoch fills the
// per-phase wall-clock fields, records one histogram sample per batch per
// phase, and exports the tape/pool/sparse gauges. Detached, the fields stay
// zero (the loop reads no clocks).
func TestLoopPhaseTimings(t *testing.T) {
	reg := obs.New()
	prev := train.Metrics
	train.Metrics = reg
	defer func() { train.Metrics = prev }()

	loop, _ := newLoop(1, 0)
	stats, err := loop.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ForwardNS <= 0 || stats.BackwardNS <= 0 || stats.OptimNS <= 0 || stats.DataNS <= 0 {
		t.Fatalf("phase timings not populated: %+v", stats)
	}
	snap := reg.Snapshot()
	for _, phase := range []string{"data", "forward", "backward", "optim"} {
		h := snap.Hist(`train_phase_ns{phase="` + phase + `"}`)
		if h == nil || h.Count != uint64(stats.Steps) {
			t.Fatalf("phase %s histogram: %+v, want %d records", phase, h, stats.Steps)
		}
	}
	if h := snap.Hist("train_epoch_ns"); h == nil || h.Count != 1 {
		t.Fatalf("train_epoch_ns: %+v, want 1 record", h)
	}
	if got := snap.Gauge("tape_peak_bytes"); got != stats.PeakCacheBytes {
		t.Fatalf("tape_peak_bytes gauge = %d, want the epoch peak %d", got, stats.PeakCacheBytes)
	}
	names := make(map[string]bool)
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, want := range []string{"tape_cache_bytes", "pool_idle_workers", "pool_tasks_total", "pool_spawns_total"} {
		if !names[want] {
			t.Fatalf("gauge/counter %s not registered (have %v)", want, names)
		}
	}

	// Detached loop: no clocks, zero phase fields, identical training result.
	train.Metrics = nil
	bare, _ := newLoop(1, 0)
	bareStats, err := bare.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if bareStats.DataNS != 0 || bareStats.ForwardNS != 0 || bareStats.BackwardNS != 0 || bareStats.OptimNS != 0 {
		t.Fatalf("unmetered loop reported phase timings: %+v", bareStats)
	}
	if bareStats.Loss != stats.Loss || bareStats.TrainAcc != stats.TrainAcc {
		t.Fatalf("telemetry perturbed training: loss %v vs %v, acc %v vs %v",
			stats.Loss, bareStats.Loss, stats.TrainAcc, bareStats.TrainAcc)
	}
}
