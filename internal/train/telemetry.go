package train

import (
	"ndsnn/internal/obs"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// Metrics is the training path's telemetry attachment point. When non-nil,
// every Loop.RunEpoch meters its batch phases (data assembly, forward,
// backward, optimizer step) into per-batch latency histograms, fills the
// phase-timing fields of EpochStats, and exports live gauges for the BPTT
// tape (tape_cache_bytes / tape_peak_bytes) and the kernel worker pool
// (pool_tasks_total / pool_spawns_total / pool_idle_workers). Nil (the
// default) keeps the loop free of clock reads.
//
// This is a package-level knob: set it before starting a run, not while one
// is in flight. The facade (Config.Metrics) manages it for
// callers going through ndsnn.TrainModel.
var Metrics *obs.Registry

// trainMeters holds one epoch's recording instruments, resolved from the
// registry at epoch start so a mid-run attach takes effect cleanly at the
// next epoch boundary.
type trainMeters struct {
	data     *obs.Histogram // train_phase_ns{phase="data"}: Dataset.Batch assembly
	forward  *obs.Histogram // train_phase_ns{phase="forward"}: SNN forward + loss
	backward *obs.Histogram // train_phase_ns{phase="backward"}: BPTT + grad hooks
	optim    *obs.Histogram // train_phase_ns{phase="optim"}: SGD step
	epoch    *obs.Histogram // train_epoch_ns: whole-epoch wall clock
}

// attachMeters resolves the epoch's instruments and (re)registers the live
// gauges. Histogram registration is idempotent; gauge/counter-func
// registration replaces by name, so calling this every epoch is safe.
func attachMeters(reg *obs.Registry) *trainMeters {
	if reg == nil {
		return nil
	}
	m := &trainMeters{
		data:     reg.Histogram(`train_phase_ns{phase="data"}`, "ns"),
		forward:  reg.Histogram(`train_phase_ns{phase="forward"}`, "ns"),
		backward: reg.Histogram(`train_phase_ns{phase="backward"}`, "ns"),
		optim:    reg.Histogram(`train_phase_ns{phase="optim"}`, "ns"),
		epoch:    reg.Histogram("train_epoch_ns", "ns"),
	}
	reg.Gauge("tape_cache_bytes", tape.CacheBytes)
	reg.Gauge("tape_peak_bytes", tape.PeakBytes)
	reg.CounterFunc("pool_tasks_total", func() int64 { return tensor.ReadPoolStats().Tasks })
	reg.CounterFunc("pool_spawns_total", func() int64 { return tensor.ReadPoolStats().Spawns })
	reg.Gauge("pool_idle_workers", func() int64 { return int64(tensor.ReadPoolStats().Idle) })
	return m
}
