package ndsnn

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

func unitCfg(method Method, sparsity float64) Config {
	return Config{
		Method: method, Arch: "lenet5", Dataset: "cifar10",
		Sparsity: sparsity, Scale: "unit", Seed: 3,
	}
}

func TestTrainFacadeNDSNN(t *testing.T) {
	res, err := Train(unitCfg(NDSNN, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0 || res.TestAccuracy > 1 {
		t.Fatalf("accuracy = %v", res.TestAccuracy)
	}
	if math.Abs(res.FinalSparsity-0.9) > 0.02 {
		t.Fatalf("final sparsity = %v", res.FinalSparsity)
	}
	if len(res.History) == 0 {
		t.Fatal("empty history")
	}
	if res.MeanTrainingSparsity <= 0 || res.MeanTrainingSparsity >= 0.9 {
		t.Fatalf("mean training sparsity = %v", res.MeanTrainingSparsity)
	}
}

func TestTrainFacadeDefaults(t *testing.T) {
	// Empty-config defaults resolve (method ndsnn, vgg16/cifar10) — use
	// unit scale to keep the test fast.
	res, err := Train(Config{Scale: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FinalSparsity-0.9) > 0.02 {
		t.Fatalf("default sparsity = %v, want 0.9", res.FinalSparsity)
	}
}

func TestTrainFacadeDeterministic(t *testing.T) {
	a, err := Train(unitCfg(SET, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(unitCfg(SET, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	if a.TestAccuracy != b.TestAccuracy || a.FinalSparsity != b.FinalSparsity {
		t.Fatal("same config gave different results")
	}
}

// TestTrainBitIdenticalAcrossGOMAXPROCS is the facade-level determinism pin:
// an entire training run — conv and linear layers, BatchNorm, event replays,
// drop-and-grow rewires and evaluation — must give bit-identical results at
// any core count, because every parallel path keeps a fixed summation order.
func TestTrainBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, arch := range []string{"lenet5", "resnet19"} {
		cfg := unitCfg(NDSNN, 0.9)
		cfg.Arch = arch
		runtime.GOMAXPROCS(1)
		want, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.TestAccuracy != want.TestAccuracy || got.FinalSparsity != want.FinalSparsity {
				t.Fatalf("%s GOMAXPROCS=%d: acc %v, sparsity %v; GOMAXPROCS=1: acc %v, sparsity %v",
					arch, procs, got.TestAccuracy, got.FinalSparsity, want.TestAccuracy, want.FinalSparsity)
			}
			if len(got.History) != len(want.History) {
				t.Fatalf("%s GOMAXPROCS=%d: %d history entries, want %d", arch, procs, len(got.History), len(want.History))
			}
			for i := range want.History {
				if got.History[i] != want.History[i] {
					t.Fatalf("%s GOMAXPROCS=%d: epoch %d %+v, GOMAXPROCS=1 %+v",
						arch, procs, i, got.History[i], want.History[i])
				}
			}
		}
	}
}

func TestRelativeTrainingCostFacade(t *testing.T) {
	dense, err := Train(unitCfg(Dense, 0))
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Train(unitCfg(NDSNN, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	cost, err := RelativeTrainingCost(nd, dense)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 || cost >= 1 {
		t.Fatalf("NDSNN relative cost = %v, want in (0,1)", cost)
	}
	if _, err := RelativeTrainingCost(&Result{}, dense); err == nil {
		t.Fatal("missing trajectory not rejected")
	}
}

func TestTrainModelDeployment(t *testing.T) {
	m, res, err := TrainModel(unitCfg(NDSNN, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FinalSparsity-0.9) > 0.02 {
		t.Fatalf("final sparsity = %v", res.FinalSparsity)
	}
	ls := m.Layers()
	if len(ls) == 0 {
		t.Fatal("no layer census")
	}
	totalActive := 0
	total := 0
	for _, l := range ls {
		totalActive += l.Active
		total += l.Total
		if l.Sparsity < 0 || l.Sparsity > 1 {
			t.Fatalf("layer %s sparsity %v", l.Name, l.Sparsity)
		}
	}
	if gotSp := 1 - float64(totalActive)/float64(total); math.Abs(gotSp-0.9) > 0.02 {
		t.Fatalf("census sparsity = %v", gotSp)
	}
	// CSR stores exact non-zeros: at most the active count (regrown
	// connections that never received an update are active but still 0),
	// and close to it.
	nnz := 0
	for _, l := range m.ExportCSR() {
		nnz += l.CSR.NNZ()
	}
	if nnz > totalActive {
		t.Fatalf("CSR nnz = %d exceeds census active = %d", nnz, totalActive)
	}
	if float64(nnz) < 0.9*float64(totalActive) {
		t.Fatalf("CSR nnz = %d far below census active = %d", nnz, totalActive)
	}
	// Platform footprints ordered by precision; sparse beats dense FP32.
	loihi, err := m.FootprintMiB("Loihi")
	if err != nil {
		t.Fatal(err)
	}
	hicann, err := m.FootprintMiB("HICANN")
	if err != nil {
		t.Fatal(err)
	}
	if hicann >= loihi {
		t.Fatalf("4-bit footprint %v not below 8-bit %v", hicann, loihi)
	}
	if loihi >= m.DenseFootprintMiB() {
		t.Fatalf("sparse 8-bit footprint %v not below dense FP32 %v", loihi, m.DenseFootprintMiB())
	}
	if _, err := m.FootprintMiB("TPU"); err == nil {
		t.Fatal("unknown platform not rejected")
	}
}

func TestPlatformsList(t *testing.T) {
	ps := Platforms()
	if len(ps) != 3 {
		t.Fatalf("platforms = %v", ps)
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table9", &buf, ExperimentOptions{Scale: "unit"}); err == nil {
		t.Fatal("unknown id not rejected")
	}
}

func TestRunExperimentMemory(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("memory", &buf, ExperimentOptions{Scale: "unit"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"vgg16", "resnet19", "Loihi", "HICANN"} {
		if !strings.Contains(out, want) {
			t.Fatalf("memory output missing %q", want)
		}
	}
}

func TestRunExperimentFig1Unit(t *testing.T) {
	var buf bytes.Buffer
	var progressLines int
	err := RunExperiment("fig1", &buf, ExperimentOptions{Scale: "unit", Progress: func(string) { progressLines++ }})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig.1") {
		t.Fatal("fig1 output missing chart")
	}
	if progressLines != 3 {
		t.Fatalf("progress lines = %d, want 3", progressLines)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	for _, id := range ExperimentIDs {
		if _, ok := ExperimentDescription[id]; !ok {
			t.Fatalf("experiment %s has no description", id)
		}
	}
	if len(ExperimentIDs) < 12 {
		t.Fatalf("expected ≥12 experiments, got %d", len(ExperimentIDs))
	}
}
