package metrics

import (
	"math"
	"testing"
)

func traj(label string, rates, densities []float64) *Trajectory {
	t := &Trajectory{Label: label}
	for i := range rates {
		t.Add(EpochPoint{Epoch: i, SpikeRate: rates[i], Density: densities[i], Sparsity: 1 - densities[i]})
	}
	return t
}

func TestRelativeCostDenseVsItself(t *testing.T) {
	d := traj("dense", []float64{0.2, 0.2, 0.2}, []float64{1, 1, 1})
	c, err := RelativeTrainingCost(d, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1e-12 {
		t.Fatalf("dense vs dense cost = %v, want 1", c)
	}
}

func TestRelativeCostSparseCheaper(t *testing.T) {
	dense := traj("dense", []float64{0.2, 0.2}, []float64{1, 1})
	sparseRun := traj("sparse", []float64{0.2, 0.2}, []float64{0.1, 0.1})
	c, err := RelativeTrainingCost(sparseRun, dense)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-0.1) > 1e-12 {
		t.Fatalf("sparse cost = %v, want 0.1", c)
	}
}

func TestRelativeCostPaysForExtraEpochs(t *testing.T) {
	// LTH-style: same density per epoch but 3× the epochs costs 3×.
	dense := traj("dense", []float64{0.2}, []float64{1})
	lth := traj("lth", []float64{0.2, 0.2, 0.2}, []float64{1, 1, 1})
	c, err := RelativeTrainingCost(lth, dense)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-3) > 1e-12 {
		t.Fatalf("3-epoch cost = %v, want 3", c)
	}
}

func TestRelativeCostWeightsSpikeRate(t *testing.T) {
	// Lower spike rate → proportionally cheaper at equal density.
	dense := traj("dense", []float64{0.4}, []float64{1})
	quiet := traj("quiet", []float64{0.1}, []float64{1})
	c, err := RelativeTrainingCost(quiet, dense)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-0.25) > 1e-12 {
		t.Fatalf("quiet cost = %v, want 0.25", c)
	}
}

func TestRelativeCostErrors(t *testing.T) {
	dense := traj("dense", []float64{0.2}, []float64{1})
	if _, err := RelativeTrainingCost(&Trajectory{}, dense); err == nil {
		t.Fatal("empty sparse trajectory not rejected")
	}
	if _, err := RelativeTrainingCost(dense, &Trajectory{}); err == nil {
		t.Fatal("empty dense trajectory not rejected")
	}
	zero := traj("z", []float64{0}, []float64{1})
	if _, err := RelativeTrainingCost(dense, zero); err == nil {
		t.Fatal("zero-activity dense reference not rejected")
	}
}

func TestTrajectoryAccessors(t *testing.T) {
	tr := traj("x", []float64{0.1, 0.3}, []float64{0.5, 0.25})
	if got := tr.SpikeRates(); got[0] != 0.1 || got[1] != 0.3 {
		t.Fatalf("SpikeRates = %v", got)
	}
	if got := tr.Densities(); got[0] != 0.5 || got[1] != 0.25 {
		t.Fatalf("Densities = %v", got)
	}
	if got := tr.Sparsities(); got[0] != 0.5 || got[1] != 0.75 {
		t.Fatalf("Sparsities = %v", got)
	}
	if got := tr.MeanSparsity(); math.Abs(got-0.625) > 1e-12 {
		t.Fatalf("MeanSparsity = %v", got)
	}
}

func TestMeanSparsityEmpty(t *testing.T) {
	if (&Trajectory{}).MeanSparsity() != 0 {
		t.Fatal("empty trajectory mean sparsity should be 0")
	}
}

func TestSynapticOps(t *testing.T) {
	// 1000 MACs, 10% density, 20% spike rate, 5 timesteps → 100 ops.
	got := SynapticOps(1000, 0.1, 0.2, 5)
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("SynapticOps = %v, want 100", got)
	}
}

func TestConfusionMatrix(t *testing.T) {
	m := Confusion(3, []int{0, 1, 2, 1}, []int{0, 1, 1, 1})
	if m[0][0] != 1 || m[1][1] != 2 || m[1][2] != 1 {
		t.Fatalf("confusion = %v", m)
	}
	total := 0
	for _, row := range m {
		for _, v := range row {
			total += v
		}
	}
	if total != 4 {
		t.Fatalf("confusion total = %d, want 4", total)
	}
}

func TestConfusionIgnoresOutOfRange(t *testing.T) {
	m := Confusion(2, []int{5}, []int{0})
	for _, row := range m {
		for _, v := range row {
			if v != 0 {
				t.Fatal("out-of-range prediction counted")
			}
		}
	}
}

func TestEventStats(t *testing.T) {
	var e EventStats
	e.Merge(EventStats{Forwards: 10, EventForwards: 5, Entries: 100, ActiveEntries: 10})
	e.Merge(EventStats{Forwards: 10, EventForwards: 10, Entries: 100, ActiveEntries: 30})
	if e.Occupancy() != 0.2 {
		t.Fatalf("occupancy %v, want 0.2", e.Occupancy())
	}
	if e.EventCoverage() != 0.75 {
		t.Fatalf("coverage %v, want 0.75", e.EventCoverage())
	}
	// Measured synops substitutes the measured occupancy for the analytic
	// spike rate: 1000 MACs × 0.1 density × 0.2 occupancy × 5 timesteps.
	if got := MeasuredSynOps(1000, 0.1, e, 5); math.Abs(got-100) > 1e-9 {
		t.Fatalf("measured synops %v, want 100", got)
	}
	var zero EventStats
	if zero.Occupancy() != 0 || zero.EventCoverage() != 0 {
		t.Fatal("zero-value EventStats must report zero rates")
	}
}
