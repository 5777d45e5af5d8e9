package train_test

import (
	"math"
	"testing"

	"ndsnn/internal/data"
	"ndsnn/internal/layers"
	"ndsnn/internal/opt"
	"ndsnn/internal/rng"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
	"ndsnn/internal/testutil"
	"ndsnn/internal/train"
)

func newLoop(epochs, maxBatches int) (*train.Loop, *data.Dataset) {
	ds := data.SynthEasy(4, 64, 32, 3)
	net := testutil.TinyNet(4, 2, 9)
	loop := &train.Loop{
		Net: net, Dataset: ds,
		Opt:       opt.NewSGD(0.05, 0.9, 5e-4),
		Schedule:  opt.CosineLR{Base: 0.05, Min: 0.001, Total: epochs},
		BatchSize: 16, Epochs: epochs, MaxBatches: maxBatches,
		Rng: rng.New(4),
	}
	return loop, ds
}

func TestLoopRunsAndRecordsStats(t *testing.T) {
	loop, _ := newLoop(2, 0)
	history, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("history = %d epochs", len(history))
	}
	for i, h := range history {
		if h.Epoch != i {
			t.Fatalf("epoch numbering wrong: %d at index %d", h.Epoch, i)
		}
		if h.Steps != 4 { // 64 samples / 16 batch
			t.Fatalf("steps = %d, want 4", h.Steps)
		}
		if h.SpikeRate <= 0 || h.SpikeRate >= 1 {
			t.Fatalf("spike rate = %v", h.SpikeRate)
		}
		if h.LR <= 0 {
			t.Fatalf("lr = %v", h.LR)
		}
	}
}

// TestLoopResetsEventStatsPerEpoch pins the per-report-window reset: the
// event-path counters (and anything derived from them, e.g. measured
// occupancy / MeasuredSynOps) must cover one epoch, not accumulate across
// every Network.Forward of the run.
func TestLoopResetsEventStatsPerEpoch(t *testing.T) {
	loop, _ := newLoop(3, 0)
	// Force the sparse-capable layers onto the counting path.
	oldD, oldR := layers.CSRMaxDensity, layers.EventMaxRate
	layers.CSRMaxDensity, layers.EventMaxRate = 1, 1
	defer func() { layers.CSRMaxDensity, layers.EventMaxRate = oldD, oldR }()
	r := rng.New(99)
	for _, p := range layers.PrunableParams(loop.Net.Params()) {
		p.Mask = tensor.New(p.W.Shape()...)
		for i := range p.Mask.Data {
			if r.Float64() < 0.2 {
				p.Mask.Data[i] = 1
			}
		}
		p.ApplyMask()
	}
	defer func() {
		for _, p := range loop.Net.Params() {
			p.InvalidateCSR()
		}
	}()
	var perEpoch []int64
	loop.Hooks.OnEpochEnd = func(stats train.EpochStats) {
		perEpoch = append(perEpoch, loop.Net.EventStats().Forwards)
		if stats.PeakCacheBytes <= 0 {
			t.Errorf("epoch %d: PeakCacheBytes = %d, want > 0 during BPTT", stats.Epoch, stats.PeakCacheBytes)
		}
	}
	if _, err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(perEpoch) != 3 || perEpoch[0] == 0 {
		t.Fatalf("per-epoch forward counters %v", perEpoch)
	}
	// Identical work per epoch ⇒ identical (not growing) counters.
	for i := 1; i < len(perEpoch); i++ {
		if perEpoch[i] != perEpoch[0] {
			t.Fatalf("event counters accumulated across epochs: %v", perEpoch)
		}
	}
}

// TestLoopTapeMeterPerEpoch pins the tape meter's per-epoch semantics:
//
//   - CacheBytes returns to its baseline after every epoch — the backward
//     replay pops every record the training forward retained, so nothing
//     leaks across epochs;
//   - PeakCacheBytes is the epoch's own high-water mark, not the run's: a
//     second epoch with intrinsically smaller caches must report a smaller
//     peak. Without the ResetPeak at epoch start it would carry the first
//     epoch's stale maximum.
func TestLoopTapeMeterPerEpoch(t *testing.T) {
	// workers=0 is the serial kernel setting, the only one the sparse
	// kernels have.
	t.Run("workers=0", func(t *testing.T) {
		loop, _ := newLoop(2, 0)
		base := tape.CacheBytes()
		stats0, err := loop.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := tape.CacheBytes(); got != base {
			t.Fatalf("epoch 0 retained %d tape bytes after backward replay", got-base)
		}
		if stats0.PeakCacheBytes <= 0 {
			t.Fatalf("epoch 0 PeakCacheBytes = %d, want > 0 during BPTT", stats0.PeakCacheBytes)
		}
		// Shrink the batch 4×: every activation cache shrinks with it, so
		// epoch 1's true peak is well below epoch 0's.
		loop.BatchSize = 4
		stats1, err := loop.RunEpoch(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := tape.CacheBytes(); got != base {
			t.Fatalf("epoch 1 retained %d tape bytes after backward replay", got-base)
		}
		if stats1.PeakCacheBytes <= 0 || stats1.PeakCacheBytes >= stats0.PeakCacheBytes {
			t.Fatalf("epoch 1 PeakCacheBytes = %d, want in (0, %d): the peak meter did not reset with EpochStats",
				stats1.PeakCacheBytes, stats0.PeakCacheBytes)
		}
	})
}

func TestLoopMaxBatchesCapsSteps(t *testing.T) {
	loop, _ := newLoop(1, 2)
	history, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if history[0].Steps != 2 {
		t.Fatalf("steps = %d, want capped at 2", history[0].Steps)
	}
	if loop.StepsPerEpoch() != 2 {
		t.Fatalf("StepsPerEpoch = %d, want 2", loop.StepsPerEpoch())
	}
}

func TestLoopHooksFire(t *testing.T) {
	loop, _ := newLoop(2, 0)
	var steps, gradReady, epochs int
	loop.Hooks.OnStep = func(step int) { steps++ }
	loop.Hooks.OnGradsReady = func(step int) { gradReady++ }
	loop.Hooks.OnEpochEnd = func(stats train.EpochStats) { epochs++ }
	if _, err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 8 || gradReady != 8 {
		t.Fatalf("hooks fired %d/%d times, want 8/8", steps, gradReady)
	}
	if epochs != 2 {
		t.Fatalf("epoch hook fired %d times", epochs)
	}
}

func TestLoopStepCounterIsGlobal(t *testing.T) {
	loop, _ := newLoop(2, 0)
	var last int
	loop.Hooks.OnStep = func(step int) {
		if step != last+1 {
			t.Fatalf("step jumped from %d to %d", last, step)
		}
		last = step
	}
	if _, err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if last != 8 {
		t.Fatalf("final step = %d, want 8", last)
	}
}

func TestLoopRejectsBadBatchSize(t *testing.T) {
	loop, _ := newLoop(1, 0)
	loop.BatchSize = 0
	if _, err := loop.Run(); err == nil {
		t.Fatal("batch size 0 not rejected")
	}
}

func TestLoopDetectsDivergence(t *testing.T) {
	loop, _ := newLoop(3, 0)
	// An absurd learning rate should blow the run up into NaN, which the
	// loop must report as an error rather than continuing silently.
	loop.Opt.LR = 1e18
	loop.Schedule = opt.CosineLR{Base: 1e18, Min: 1e18, Total: 3}
	if _, err := loop.Run(); err == nil {
		t.Skip("network survived the hostile LR (no NaN produced); divergence guard untestable here")
	}
}

func TestEvaluateAccuracyBounds(t *testing.T) {
	loop, ds := newLoop(2, 0)
	if _, err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	acc := train.Evaluate(loop.Net, ds, &ds.Test, 16)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestEvaluateEmptySplit(t *testing.T) {
	loop, ds := newLoop(1, 0)
	empty := &data.Split{}
	if got := train.Evaluate(loop.Net, ds, empty, 8); got != 0 {
		t.Fatalf("empty split accuracy = %v", got)
	}
}

func TestCommonWithDefaults(t *testing.T) {
	c := train.Common{}.WithDefaults()
	if c.Epochs == 0 || c.BatchSize == 0 || c.LR == 0 || c.Momentum == 0 || c.WeightDecay == 0 || c.Seed == 0 {
		t.Fatalf("defaults incomplete: %+v", c)
	}
	if c.EvalBatch != c.BatchSize {
		t.Fatalf("EvalBatch default = %d, want BatchSize", c.EvalBatch)
	}
	// Explicit values survive.
	c2 := train.Common{Epochs: 7, LR: 0.3}.WithDefaults()
	if c2.Epochs != 7 || c2.LR != 0.3 {
		t.Fatal("explicit values overwritten")
	}
}

func TestBuildTrajectory(t *testing.T) {
	hist := []train.EpochStats{
		{Epoch: 0, Sparsity: 0.5, SpikeRate: 0.2, Loss: 1.5, TrainAcc: 0.3},
		{Epoch: 1, Sparsity: 0.7, SpikeRate: 0.15, Loss: 1.2, TrainAcc: 0.5},
	}
	tr := train.BuildTrajectory("x", hist)
	if tr.Label != "x" || len(tr.Points) != 2 {
		t.Fatalf("trajectory %+v", tr)
	}
	if math.Abs(tr.Points[1].Density-0.3) > 1e-9 {
		t.Fatalf("density = %v", tr.Points[1].Density)
	}
}
