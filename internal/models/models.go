// Package models builds the paper's evaluation architectures as spiking
// networks: VGG-16 and ResNet-19 (accuracy tables) and LeNet-5 (the ADMM
// comparison), each definable at full paper width or at width-scaled
// profiles that make CPU training tractable while preserving the layer
// structure, the ERK allocation geometry and the drop/grow code paths.
package models

import (
	"fmt"
	"math"

	"ndsnn/internal/layers"
	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
)

// Profile scales an architecture's width. The paper profile is 1×; the
// mini/tiny profiles shrink channel and FC widths for CPU benches and tests.
type Profile struct {
	Name string
	// Width multiplies convolution channel counts.
	Width float64
	// FCWidth multiplies hidden fully-connected widths.
	FCWidth float64
}

// Predefined profiles.
var (
	ProfilePaper = Profile{Name: "paper", Width: 1, FCWidth: 1}
	ProfileMini  = Profile{Name: "mini", Width: 1.0 / 8, FCWidth: 1.0 / 8}
	ProfileTiny  = Profile{Name: "tiny", Width: 1.0 / 16, FCWidth: 1.0 / 16}
)

// ProfileByName resolves "paper", "mini" or "tiny" (default mini).
func ProfileByName(name string) Profile {
	switch name {
	case "paper":
		return ProfilePaper
	case "tiny":
		return ProfileTiny
	default:
		return ProfileMini
	}
}

func (p Profile) scale(c int) int {
	s := int(math.Round(float64(c) * p.Width))
	if s < 4 {
		s = 4
	}
	return s
}

func (p Profile) scaleFC(c int) int {
	s := int(math.Round(float64(c) * p.FCWidth))
	if s < 16 {
		s = 16
	}
	return s
}

// Config describes a model to build.
type Config struct {
	// Arch is "vgg16", "resnet19" or "lenet5".
	Arch string
	// Classes is the output dimension.
	Classes int
	// InC/InH/InW describe the input geometry.
	InC, InH, InW int
	// Timesteps is the SNN simulation length T.
	Timesteps int
	// Neuron configures every LIF in the model.
	Neuron snn.NeuronConfig
	// Profile scales the width.
	Profile Profile
	// Seed controls weight initialization.
	Seed uint64
}

// Build constructs the requested architecture. Every network runs the tape
// engine's time-major (layer-major) schedule, where the fused-timestep
// kernels live; the old step-major loop is pinned as golden fixtures in the
// snn package's equivalence tests.
func Build(cfg Config) *snn.Network {
	switch cfg.Arch {
	case "vgg16":
		return VGG16(cfg)
	case "resnet19":
		return ResNet19(cfg)
	case "lenet5":
		return LeNet5(cfg)
	default:
		panic(fmt.Sprintf("models: unknown architecture %q", cfg.Arch))
	}
}

// vgg16Plan is the classic 13-convolution layout; "M" entries are 2×2 max
// pools.
var vgg16Plan = []interface{}{
	64, 64, "M",
	128, 128, "M",
	256, 256, 256, "M",
	512, 512, 512, "M",
	512, 512, 512, "M",
}

// VGG16 builds the spiking VGG-16: 13 conv(3×3)+BN+LIF stages with max
// pools, then a three-layer spiking classifier (the paper's 16 weighted
// layers). Pools that would shrink the spatial size below 1 are skipped, and
// any remaining spatial extent is removed by a global average pool, so the
// same architecture accepts 16/32/64-pixel inputs.
func VGG16(cfg Config) *snn.Network {
	r := rng.New(cfg.Seed)
	var ls []layers.Layer
	inC := cfg.InC
	size := cfg.InH
	convIdx := 0
	for _, item := range vgg16Plan {
		switch v := item.(type) {
		case int:
			outC := cfg.Profile.scale(v)
			convIdx++
			name := fmt.Sprintf("conv%d", convIdx)
			ls = append(ls,
				layers.NewConv2d(name, inC, outC, 3, 1, 1, false, r),
				layers.NewBatchNorm(name+".bn", outC),
				cfg.Neuron.New(),
			)
			inC = outC
		case string:
			if size >= 2 {
				ls = append(ls, layers.NewMaxPool2d(2, 2))
				size /= 2
			}
		}
	}
	if size > 1 {
		ls = append(ls, layers.NewAvgPool2d(size, size))
		size = 1
	}
	fcW := cfg.Profile.scaleFC(512)
	// Hidden classifier layers carry BN like the conv stages: without it the
	// spiking classifier's firing rate collapses at narrow widths (the same
	// reason directly-trained deep SNNs normalize every weighted stage).
	ls = append(ls,
		layers.NewFlatten(),
		layers.NewLinear("fc1", inC, fcW, true, r),
		layers.NewBatchNorm("fc1.bn", fcW),
		cfg.Neuron.New(),
		layers.NewLinear("fc2", fcW, fcW, true, r),
		layers.NewBatchNorm("fc2.bn", fcW),
		cfg.Neuron.New(),
		layers.NewLinear("fc3", fcW, cfg.Classes, true, r),
	)
	return &snn.Network{Layers: ls, T: cfg.Timesteps}
}

// ResNet19 builds the spiking ResNet-19 of directly-trained deep SNNs:
// conv(128)+BN+LIF, three residual stages of [3,3,2] basic blocks with
// channels [128,256,512] (stride 2 entering stages 2 and 3), global average
// pooling, then fc(256)+LIF and the classifier — 17 convolutions and 2
// fully-connected layers.
func ResNet19(cfg Config) *snn.Network {
	r := rng.New(cfg.Seed)
	c1 := cfg.Profile.scale(128)
	c2 := cfg.Profile.scale(256)
	c3 := cfg.Profile.scale(512)
	var ls []layers.Layer
	ls = append(ls,
		layers.NewConv2d("stem", cfg.InC, c1, 3, 1, 1, false, r),
		layers.NewBatchNorm("stem.bn", c1),
		cfg.Neuron.New(),
	)
	size := cfg.InH
	stage := func(name string, inC, outC, blocks, stride int) int {
		for b := 0; b < blocks; b++ {
			s := 1
			ic := outC
			if b == 0 {
				s = stride
				ic = inC
			}
			ls = append(ls, snn.NewResidualBlock(fmt.Sprintf("%s.b%d", name, b), ic, outC, s, cfg.Neuron, r))
		}
		size /= stride
		return outC
	}
	c := stage("stage1", c1, c1, 3, 1)
	c = stage("stage2", c, c2, 3, 2)
	c = stage("stage3", c, c3, 2, 2)
	if size > 1 {
		ls = append(ls, layers.NewAvgPool2d(size, size))
	}
	fcW := cfg.Profile.scaleFC(256)
	ls = append(ls,
		layers.NewFlatten(),
		layers.NewLinear("fc1", c, fcW, true, r),
		layers.NewBatchNorm("fc1.bn", fcW),
		cfg.Neuron.New(),
		layers.NewLinear("fc2", fcW, cfg.Classes, true, r),
	)
	return &snn.Network{Layers: ls, T: cfg.Timesteps}
}

// LeNet5 builds the spiking LeNet-5 used in the ADMM comparison (Table II):
// conv(6,5×5), pool, conv(16,5×5), pool, then 120-84-classes spiking
// classifier.
func LeNet5(cfg Config) *snn.Network {
	r := rng.New(cfg.Seed)
	c1 := cfg.Profile.scale(6)
	c2 := cfg.Profile.scale(16)
	f1 := cfg.Profile.scaleFC(120)
	f2 := cfg.Profile.scaleFC(84)
	// Classic LeNet geometry: 5×5 valid convolutions with 2×2 pools.
	size := cfg.InH
	size = size - 4 // conv1
	size /= 2       // pool1
	size = size - 4 // conv2
	size /= 2       // pool2
	if size < 1 {
		panic(fmt.Sprintf("models: input %dx%d too small for LeNet-5", cfg.InH, cfg.InW))
	}
	ls := []layers.Layer{
		layers.NewConv2d("conv1", cfg.InC, c1, 5, 1, 0, false, r),
		layers.NewBatchNorm("conv1.bn", c1),
		cfg.Neuron.New(),
		layers.NewAvgPool2d(2, 2),
		layers.NewConv2d("conv2", c1, c2, 5, 1, 0, false, r),
		layers.NewBatchNorm("conv2.bn", c2),
		cfg.Neuron.New(),
		layers.NewAvgPool2d(2, 2),
		layers.NewFlatten(),
		layers.NewLinear("fc1", c2*size*size, f1, true, r),
		layers.NewBatchNorm("fc1.bn", f1),
		cfg.Neuron.New(),
		layers.NewLinear("fc2", f1, f2, true, r),
		layers.NewBatchNorm("fc2.bn", f2),
		cfg.Neuron.New(),
		layers.NewLinear("fc3", f2, cfg.Classes, true, r),
	}
	return &snn.Network{Layers: ls, T: cfg.Timesteps}
}

// ParamCount returns the total number of trainable scalars in the network.
func ParamCount(net *snn.Network) int {
	n := 0
	for _, p := range net.Params() {
		n += p.W.Size()
	}
	return n
}

// PrunableCount returns the number of weights eligible for sparsification.
func PrunableCount(net *snn.Network) int {
	n := 0
	for _, p := range layers.PrunableParams(net.Params()) {
		n += p.W.Size()
	}
	return n
}

// Census describes one parameter tensor for reports and ERK allocation.
type Census struct {
	Name     string
	Shape    []int
	Size     int
	Prunable bool
}

// ParamCensus lists every parameter tensor in order.
func ParamCensus(net *snn.Network) []Census {
	var out []Census
	for _, p := range net.Params() {
		out = append(out, Census{Name: p.Name, Shape: p.W.Shape(), Size: p.W.Size(), Prunable: !p.NoPrune})
	}
	return out
}
