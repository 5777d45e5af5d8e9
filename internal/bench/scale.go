// Package bench is the experiment harness: it maps every table and figure
// of the paper to a runnable experiment, at three scales.
//
//   - "unit": seconds-long configurations used by this repository's own
//     tests.
//   - "bench": the default for `go test -bench` and the ndsnn-bench CLI —
//     width-scaled models on reduced synthetic datasets. Absolute accuracies
//     are far below the paper's (smaller models, much less data, CPU
//     budget); what must reproduce is the *shape*: method ordering across
//     sparsities, the training-cost ranking, and the schedule behaviour.
//   - "paper": the full configuration (paper-width models, full class
//     counts and geometry, 300 epochs, T=5). It runs the identical code
//     path and is practical on a large CPU budget only.
//
// Scale also owns the dataset proxies: at reduced scales the CIFAR-100 and
// Tiny-ImageNet stand-ins shrink class counts and geometry proportionally
// (documented in DESIGN.md) while keeping their relative difficulty
// ordering.
package bench

import (
	"fmt"

	"ndsnn/internal/data"
	"ndsnn/internal/models"
)

// Scale bundles every knob that trades fidelity for runtime.
type Scale struct {
	Name    string
	Profile models.Profile
	// Epochs / BatchSize / Timesteps mirror the paper's training setup.
	Epochs    int
	BatchSize int
	Timesteps int
	// LR is the initial learning rate (paper: 0.3 at batch 128).
	LR float64
	// PerArchLR overrides LR for specific architectures; width-scaled
	// models want architecture-specific rates (the deep narrow VGG-16
	// trains best hotter than ResNet-19 at tiny width).
	PerArchLR map[string]float64
	// DeltaT is the mask-update period in steps.
	DeltaT int
	// LTHRounds / LTHEpochsPerRound size the iterative-pruning baseline.
	LTHRounds, LTHEpochsPerRound int
	// ADMMEpochs sizes the ADMM regularized phase.
	ADMMEpochs int
	// MaxBatches caps steps per epoch (0 = full).
	MaxBatches int

	// Per-dataset proxy settings: class count, image size, split sizes.
	DatasetCfg map[string]DatasetScale
}

// DatasetScale describes one dataset proxy at this scale.
type DatasetScale struct {
	Classes       int
	Pixels        int
	TrainN, TestN int
}

// Canonical dataset keys.
const (
	CIFAR10      = "cifar10"
	CIFAR100     = "cifar100"
	TinyImageNet = "tinyimagenet"
)

// ScaleUnit is the test-suite scale.
var ScaleUnit = Scale{
	Name: "unit", Profile: models.ProfileTiny,
	Epochs: 2, BatchSize: 16, Timesteps: 2, LR: 0.08, DeltaT: 3,
	LTHRounds: 2, LTHEpochsPerRound: 1, ADMMEpochs: 1,
	DatasetCfg: map[string]DatasetScale{
		CIFAR10:      {Classes: 4, Pixels: 16, TrainN: 96, TestN: 48},
		CIFAR100:     {Classes: 6, Pixels: 16, TrainN: 120, TestN: 60},
		TinyImageNet: {Classes: 8, Pixels: 16, TrainN: 128, TestN: 64},
	},
}

// ScaleBench is the default experiment scale.
var ScaleBench = Scale{
	Name: "bench", Profile: models.ProfileTiny,
	Epochs: 8, BatchSize: 32, Timesteps: 2, LR: 0.1, DeltaT: 4,
	PerArchLR: map[string]float64{"vgg16": 0.2},
	LTHRounds: 2, LTHEpochsPerRound: 2, ADMMEpochs: 3,
	DatasetCfg: map[string]DatasetScale{
		CIFAR10:      {Classes: 10, Pixels: 16, TrainN: 480, TestN: 240},
		CIFAR100:     {Classes: 16, Pixels: 16, TrainN: 640, TestN: 320},
		TinyImageNet: {Classes: 24, Pixels: 24, TrainN: 720, TestN: 360},
	},
}

// ScalePaper is the full-fidelity configuration.
var ScalePaper = Scale{
	Name: "paper", Profile: models.ProfilePaper,
	Epochs: 300, BatchSize: 128, Timesteps: 5, LR: 0.3, DeltaT: 100,
	LTHRounds: 9, LTHEpochsPerRound: 100, ADMMEpochs: 150,
	DatasetCfg: map[string]DatasetScale{
		CIFAR10:      {Classes: 10, Pixels: 32, TrainN: 50000, TestN: 10000},
		CIFAR100:     {Classes: 100, Pixels: 32, TrainN: 50000, TestN: 10000},
		TinyImageNet: {Classes: 200, Pixels: 64, TrainN: 100000, TestN: 10000},
	},
}

// LRFor returns the learning rate for an architecture at this scale.
func (s Scale) LRFor(arch string) float64 {
	if lr, ok := s.PerArchLR[arch]; ok {
		return lr
	}
	return s.LR
}

// ScaleByName resolves "unit", "bench" or "paper" (default bench).
func ScaleByName(name string) Scale {
	switch name {
	case "unit":
		return ScaleUnit
	case "paper":
		return ScalePaper
	default:
		return ScaleBench
	}
}

// Dataset builds the proxy dataset for a canonical key at this scale.
// Paper scale on Tiny-ImageNet uses the lower epoch budget the paper uses
// (100), which callers handle via EpochsFor.
func (s Scale) Dataset(key string, seed uint64) *data.Dataset {
	cfg, ok := s.DatasetCfg[key]
	if !ok {
		panic(fmt.Sprintf("bench: unknown dataset %q", key))
	}
	noise, jitter := 0.3, 0.06
	if key == TinyImageNet {
		noise, jitter = 0.35, 0.08
	}
	return data.Generate(data.Config{
		Name: fmt.Sprintf("synth-%s-%s", key, s.Name), Classes: cfg.Classes,
		C: 3, H: cfg.Pixels, W: cfg.Pixels,
		TrainN: cfg.TrainN, TestN: cfg.TestN,
		Noise: noise, Jitter: jitter, Seed: seed,
	})
}

// EpochsFor returns the training epochs for a dataset, honoring the paper's
// reduced budget on Tiny-ImageNet (100 epochs vs 300).
func (s Scale) EpochsFor(key string) int {
	if key == TinyImageNet && s.Name == "paper" {
		return 100
	}
	return s.Epochs
}
