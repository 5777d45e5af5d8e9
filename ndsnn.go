// Package ndsnn is a pure-Go reproduction of "Neurogenesis Dynamics-inspired
// Spiking Neural Network Training Acceleration" (Huang et al., DAC 2023).
//
// It provides, entirely on the standard library:
//
//   - a spiking-neural-network training substrate (LIF neurons, surrogate
//     gradients, BPTT, VGG-16 / ResNet-19 / LeNet-5 model zoo);
//   - the paper's contribution — NDSNN dynamic sparse training with a
//     decreasing live-weight population (drop-and-grow on the Eq. 4 cubic
//     sparsity ramp with Eq. 5 cosine death-rate annealing);
//   - the baselines it is evaluated against (Dense, SET, RigL, LTH, ADMM);
//   - the efficiency models (spike-rate-weighted training cost, Sec. III-D
//     memory footprints) and an experiment harness regenerating every table
//     and figure of the paper's evaluation.
//
// The quickest entry point:
//
//	res, err := ndsnn.Train(ndsnn.Config{
//		Method:  ndsnn.NDSNN,
//		Arch:    "vgg16",
//		Dataset: "cifar10",
//		Sparsity: 0.95,
//	})
//
// Datasets are deterministic synthetic stand-ins for CIFAR-10/100 and
// Tiny-ImageNet (see DESIGN.md for the substitution rationale); Scale
// selects how faithful — and how slow — a run is ("unit", "bench", "paper").
package ndsnn

import (
	"fmt"

	"ndsnn/internal/bench"
	"ndsnn/internal/data"
	"ndsnn/internal/layers"
	"ndsnn/internal/metrics"
	"ndsnn/internal/models"
	"ndsnn/internal/obs"
	"ndsnn/internal/snn"
	"ndsnn/internal/sparse"
	"ndsnn/internal/train"
)

// Method selects a training method.
type Method string

// Available methods.
const (
	// Dense trains without sparsification (the accuracy reference).
	Dense Method = "dense"
	// SET is Sparse Evolutionary Training: constant sparsity, magnitude
	// drop, random grow.
	SET Method = "set"
	// RigL is constant-sparsity training with gradient-based growth.
	RigL Method = "rigl"
	// LTH is iterative magnitude pruning with weight rewinding.
	LTH Method = "lth"
	// ADMM is alternating-direction-method-of-multipliers pruning.
	ADMM Method = "admm"
	// NDSNN is the paper's method: dynamic sparse training with a
	// decreasing number of non-zero weights.
	NDSNN Method = "ndsnn"
)

// Config describes one training run.
type Config struct {
	// Method defaults to NDSNN.
	Method Method
	// Arch is "vgg16", "resnet19" or "lenet5" (default "vgg16").
	Arch string
	// Dataset is "cifar10", "cifar100" or "tinyimagenet" (default
	// "cifar10"). All are deterministic synthetic stand-ins.
	Dataset string
	// Sparsity is the target (final) sparsity for sparse methods.
	Sparsity float64
	// InitialSparsity is NDSNN's θᵢ; 0 applies the paper's rule of thumb.
	InitialSparsity float64
	// Timesteps overrides the scale's SNN simulation length when > 0.
	Timesteps int
	// Scale is "unit", "bench" (default) or "paper".
	Scale string
	// Seed makes the run reproducible (default 1).
	Seed uint64
	// Metrics enables training-path telemetry for TrainModel runs: per-batch
	// phase latency histograms, per-epoch phase totals in the history, and
	// live tape/worker-pool gauges, readable afterwards via Model.Telemetry.
	// Off (false) by default — the training loop then carries no clock reads.
	// Telemetry attaches process-wide for the duration of the run (like
	// SetKernelWorkers), so concurrent metered runs share one registry.
	Metrics bool
}

func (c Config) withDefaults() Config {
	if c.Method == "" {
		c.Method = NDSNN
	}
	if c.Arch == "" {
		c.Arch = "vgg16"
	}
	if c.Dataset == "" {
		c.Dataset = "cifar10"
	}
	if c.Scale == "" {
		c.Scale = "bench"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sparsity == 0 && c.Method != Dense {
		c.Sparsity = 0.9
	}
	return c
}

// EpochPoint is one epoch of training history.
type EpochPoint struct {
	Epoch         int
	Loss          float64
	TrainAccuracy float64
	Sparsity      float64
	SpikeRate     float64
	LR            float64
}

// Result summarizes a training run.
type Result struct {
	// TestAccuracy is the final test accuracy in [0,1].
	TestAccuracy float64
	// FinalSparsity is the trained model's overall prunable sparsity.
	FinalSparsity float64
	// MeanTrainingSparsity averages sparsity over all training epochs —
	// the quantity behind the paper's training-cost claims.
	MeanTrainingSparsity float64
	// History holds per-epoch statistics (for multi-phase methods such as
	// LTH it spans every phase).
	History []EpochPoint

	traj *metrics.Trajectory
}

func resultFrom(r *train.Result) *Result {
	out := &Result{
		TestAccuracy:         r.TestAcc,
		FinalSparsity:        r.FinalSparsity,
		MeanTrainingSparsity: r.Trajectory.MeanSparsity(),
		traj:                 r.Trajectory,
	}
	for _, h := range r.History {
		out.History = append(out.History, EpochPoint{
			Epoch: h.Epoch, Loss: h.Loss, TrainAccuracy: h.TrainAcc,
			Sparsity: h.Sparsity, SpikeRate: h.SpikeRate, LR: h.LR,
		})
	}
	return out
}

// SetKernelWorkers sets the engine-wide kernel-parallelism knob
// (sparse.Workers): the number of strips individual sparse event kernels —
// conv/linear event forwards, SDDMM weight gradients and compiled inference
// stages — split their work into on the persistent worker pool. 0 (the
// default) keeps every kernel serial, leaving parallelism to the batch
// dimension; a typical setting is runtime.GOMAXPROCS(0), which pays off
// exactly when batches are too narrow to fill the host (small-batch
// training, timestep-fused calls, single-sample inference). Results are
// bit-identical at any setting — the parallel kernels preserve the serial
// summation order (see docs/ARCHITECTURE.md, "Threading model"). Inference
// engines snapshot the knob at compile time; set it before
// CompileInference/CompileQuantizedInference. Not safe to change while
// training or inference is in flight. It returns the previous value.
func SetKernelWorkers(n int) int {
	old := sparse.Workers
	sparse.Workers = n
	return old
}

// Train runs one configuration and returns its result.
func Train(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res, err := bench.Run(bench.ScaleByName(cfg.Scale), bench.Spec{
		Method: string(cfg.Method), Arch: cfg.Arch, Dataset: cfg.Dataset,
		Sparsity: cfg.Sparsity, InitialSparsity: cfg.InitialSparsity,
		Timesteps: cfg.Timesteps, Seed: cfg.Seed,
	}, nil)
	if err != nil {
		return nil, err
	}
	return resultFrom(res), nil
}

// RelativeTrainingCost returns run's spike-rate-weighted training cost
// relative to a dense reference run (Sec. IV-C): 1.0 means "as expensive as
// the dense run", lower is cheaper.
func RelativeTrainingCost(run, denseRef *Result) (float64, error) {
	if run.traj == nil || denseRef.traj == nil {
		return 0, fmt.Errorf("ndsnn: results lack trajectories (construct them via Train)")
	}
	return metrics.RelativeTrainingCost(run.traj, denseRef.traj)
}

// LayerSparsity describes one prunable tensor of a trained model.
type LayerSparsity struct {
	Name     string
	Shape    []int
	Total    int
	Active   int
	Sparsity float64
}

// Model is a trained network handle exposing deployment utilities.
type Model struct {
	net     *snn.Network
	result  *Result
	dataset *data.Dataset
	reg     *obs.Registry // nil unless trained with Config.Metrics
}

// TrainModel runs a configuration and returns both the result and a Model
// for deployment analysis (CSR export, platform footprints).
func TrainModel(cfg Config) (*Model, *Result, error) {
	cfg = cfg.withDefaults()
	s := bench.ScaleByName(cfg.Scale)
	ds := s.Dataset(cfg.Dataset, 1000+cfg.Seed%7)
	t := s.Timesteps
	if cfg.Timesteps > 0 {
		t = cfg.Timesteps
	}
	net := models.Build(models.Config{
		Arch: cfg.Arch, Classes: ds.Config.Classes,
		InC: ds.Config.C, InH: ds.Config.H, InW: ds.Config.W,
		Timesteps: t, Neuron: snn.DefaultNeuron(),
		Profile: s.Profile, Seed: cfg.Seed*31 + 7,
	})
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.New()
		prev := train.Metrics
		train.Metrics = reg
		defer func() { train.Metrics = prev }()
	}
	// Run through the same dispatcher against the same dataset/model seeds
	// so TrainModel(cfg) and Train(cfg) agree.
	res, err := bench.RunOn(s, bench.Spec{
		Method: string(cfg.Method), Arch: cfg.Arch, Dataset: cfg.Dataset,
		Sparsity: cfg.Sparsity, InitialSparsity: cfg.InitialSparsity,
		Timesteps: cfg.Timesteps, Seed: cfg.Seed,
	}, ds, net)
	if err != nil {
		return nil, nil, err
	}
	r := resultFrom(res)
	return &Model{net: net, result: r, dataset: ds, reg: reg}, r, nil
}

// Layers returns the per-layer sparsity census of the trained model.
func (m *Model) Layers() []LayerSparsity {
	var out []LayerSparsity
	for _, p := range layers.PrunableParams(m.net.Params()) {
		out = append(out, LayerSparsity{
			Name: p.Name, Shape: p.W.Shape(), Total: p.W.Size(),
			Active: p.ActiveCount(), Sparsity: p.Sparsity(),
		})
	}
	return out
}

// CSRLayer is one layer exported to compressed sparse row format.
type CSRLayer struct {
	Name string
	CSR  *sparse.CSR
}

// ExportCSR converts every prunable weight tensor to CSR (conv kernels are
// stored as [filters, in·k·k] matrices), the deployment format of the
// paper's Sec. III-D analysis.
func (m *Model) ExportCSR() []CSRLayer {
	var out []CSRLayer
	for _, p := range layers.PrunableParams(m.net.Params()) {
		shape := p.W.Shape()
		rows := shape[0]
		w2d := p.W.Reshape(rows, p.W.Size()/rows)
		out = append(out, CSRLayer{Name: p.Name, CSR: sparse.EncodeCSR(w2d)})
	}
	return out
}

// FootprintMiB returns the deployed-model memory in MiB for a platform
// weight precision ("Loihi" 8-bit, "HICANN" 4-bit, "FPGA-SyncNN" 16-bit),
// computed from the actual exported CSR.
func (m *Model) FootprintMiB(platform string) (float64, error) {
	var bits int
	for _, p := range sparse.Platforms {
		if p.Name == platform {
			bits = p.WeightBits
		}
	}
	if bits == 0 {
		return 0, fmt.Errorf("ndsnn: unknown platform %q", platform)
	}
	var total int64
	for _, l := range m.ExportCSR() {
		total += l.CSR.MemoryBits(bits, sparse.DefaultIndexBits)
	}
	return sparse.BitsToMiB(float64(total)), nil
}

// DenseFootprintMiB returns the dense FP32 size of the same weights.
func (m *Model) DenseFootprintMiB() float64 {
	n := 0
	for _, p := range layers.PrunableParams(m.net.Params()) {
		n += p.W.Size()
	}
	return sparse.BitsToMiB(sparse.DenseFootprintBits(n, sparse.TrainingBits))
}

// Platforms lists the neuromorphic deployment targets of Sec. III-D.
func Platforms() []string {
	var out []string
	for _, p := range sparse.Platforms {
		out = append(out, p.Name)
	}
	return out
}
