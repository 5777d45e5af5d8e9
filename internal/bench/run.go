package bench

import (
	"fmt"

	"ndsnn/internal/baselines"
	"ndsnn/internal/core"
	"ndsnn/internal/data"
	"ndsnn/internal/models"
	"ndsnn/internal/snn"
	"ndsnn/internal/train"
)

// Method names understood by Run.
const (
	MethodDense = "dense"
	MethodLTH   = "lth"
	MethodSET   = "set"
	MethodRigL  = "rigl"
	MethodNDSNN = "ndsnn"
	MethodADMM  = "admm"
)

// Methods lists every method in the paper's Table I order plus ADMM.
var Methods = []string{MethodDense, MethodLTH, MethodSET, MethodRigL, MethodNDSNN}

// Spec identifies one training run.
type Spec struct {
	Method   string
	Arch     string // "vgg16", "resnet19", "lenet5"
	Dataset  string // canonical key
	Sparsity float64
	// Timesteps overrides the scale default when > 0 (Fig. 4 uses T=2).
	Timesteps int
	// InitialSparsity overrides NDSNN's θᵢ rule when > 0 (Table III).
	InitialSparsity float64
	// Surrogate overrides the neuron's surrogate gradient ("atan", "rect",
	// "sigmoid"); empty means atan (ablation A4).
	Surrogate string
	// Shape overrides NDSNN's ramp shape ("cubic", "linear", "step");
	// empty means cubic (ablation A2).
	Shape string
	// Distribution overrides the layer allocation ("erk", "uniform");
	// empty means erk (ablation A3).
	Distribution string
	// Grow overrides NDSNN's growth criterion ("gradient", "random");
	// empty means gradient (ablation A1).
	Grow string
	// DeltaT overrides the scale's mask-update period when > 0 (ablation A5).
	DeltaT int
	Seed   uint64
}

// InitialSparsityFor is the default θᵢ rule used when a Spec does not pin
// it: the paper picks θᵢ from {0.5..0.8}, lower targets taking lower θᵢ.
// Targets at or below 0.5 (Table II's moderate ratios) start from half the
// target so the population still shrinks.
func InitialSparsityFor(final float64) float64 {
	init := final - 0.25
	if init < 0.5 {
		init = 0.5
	}
	if init > 0.8 {
		init = 0.8
	}
	if init >= final {
		init = final / 2
	}
	return init
}

// Run executes one spec at the given scale and returns the uniform result.
// The dataset may be shared across runs (pass nil to have Run build it).
func Run(s Scale, spec Spec, ds *data.Dataset) (*train.Result, error) {
	if ds == nil {
		ds = s.Dataset(spec.Dataset, 1000+spec.Seed%7)
	}
	t := s.Timesteps
	if spec.Timesteps > 0 {
		t = spec.Timesteps
	}
	neuron := snn.DefaultNeuron()
	if spec.Surrogate != "" {
		neuron.Surrogate = snn.SurrogateByName(spec.Surrogate)
	}
	net := models.Build(models.Config{
		Arch: spec.Arch, Classes: ds.Config.Classes,
		InC: ds.Config.C, InH: ds.Config.H, InW: ds.Config.W,
		Timesteps: t, Neuron: neuron,
		Profile: s.Profile, Seed: spec.Seed*31 + 7,
	})
	return RunOn(s, spec, ds, net)
}

// RunOn executes a spec against a caller-provided network (which it trains
// in place) — the entry point for callers that need the trained model
// afterwards, e.g. for CSR export.
func RunOn(s Scale, spec Spec, ds *data.Dataset, net *snn.Network) (*train.Result, error) {
	deltaT := s.DeltaT
	if spec.DeltaT > 0 {
		deltaT = spec.DeltaT
	}
	lr := s.LRFor(spec.Arch)
	common := train.Common{
		Epochs: s.EpochsFor(spec.Dataset), BatchSize: s.BatchSize,
		LR: lr, LRMin: lr / 100, Momentum: 0.9, WeightDecay: 5e-4,
		MaxBatches: s.MaxBatches, Seed: spec.Seed + 1,
	}
	switch spec.Method {
	case MethodDense:
		return baselines.TrainDense(net, ds, common)
	case MethodSET:
		return baselines.TrainSET(net, ds, common, baselines.DSTConfig{Sparsity: spec.Sparsity, DeltaT: deltaT, Distribution: spec.Distribution})
	case MethodRigL:
		return baselines.TrainRigL(net, ds, common, baselines.DSTConfig{Sparsity: spec.Sparsity, DeltaT: deltaT, Distribution: spec.Distribution})
	case MethodLTH:
		return baselines.TrainLTH(net, ds, common, baselines.LTHConfig{
			TargetSparsity: spec.Sparsity,
			Rounds:         s.LTHRounds, EpochsPerRound: s.LTHEpochsPerRound,
			FinalEpochs: common.Epochs,
		})
	case MethodADMM:
		return baselines.TrainADMM(net, ds, common, baselines.ADMMConfig{
			TargetSparsity: spec.Sparsity,
			ADMMEpochs:     s.ADMMEpochs, FinetuneEpochs: common.Epochs,
		})
	case MethodNDSNN:
		init := spec.InitialSparsity
		if init == 0 {
			init = InitialSparsityFor(spec.Sparsity)
		}
		out, err := core.TrainNDSNN(net, ds, common, core.Config{
			InitialSparsity: init, FinalSparsity: spec.Sparsity, DeltaT: deltaT,
			Distribution: spec.Distribution,
			Grow:         core.GrowByName(spec.Grow),
			Shape:        core.ShapeByName(spec.Shape),
		})
		if err != nil {
			return nil, err
		}
		return &out.Result, nil
	default:
		return nil, fmt.Errorf("bench: unknown method %q", spec.Method)
	}
}
