package snn

import (
	"fmt"

	"ndsnn/internal/layers"
	"ndsnn/internal/rng"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// ResidualBlock is the spiking basic block used by ResNet-19:
//
//	out = LIF( BN2(Conv2( LIF(BN1(Conv1(x))) )) + shortcut(x) )
//
// where shortcut is the identity when shapes match and a 1×1
// convolution + BN otherwise. Both convolutions are 3×3; the first carries
// the stride. The block behaves as a single Layer so Network can stay a
// plain sequence; internally it routes Forward/Backward through both paths
// and the elementwise addition.
type ResidualBlock struct {
	Conv1 *layers.Conv2d
	BN1   *layers.BatchNorm
	LIF1  *LIF
	Conv2 *layers.Conv2d
	BN2   *layers.BatchNorm
	// SCConv/SCBN form the projection shortcut; both nil for identity.
	SCConv *layers.Conv2d
	SCBN   *layers.BatchNorm
	LIF2   *LIF
}

// NewResidualBlock constructs a spiking basic block mapping inC channels to
// outC with the given stride on the first convolution.
func NewResidualBlock(name string, inC, outC, stride int, neuron NeuronConfig, r *rng.RNG) *ResidualBlock {
	b := &ResidualBlock{
		Conv1: layers.NewConv2d(name+".conv1", inC, outC, 3, stride, 1, false, r),
		BN1:   layers.NewBatchNorm(name+".bn1", outC),
		LIF1:  neuron.New(),
		Conv2: layers.NewConv2d(name+".conv2", outC, outC, 3, 1, 1, false, r),
		BN2:   layers.NewBatchNorm(name+".bn2", outC),
		LIF2:  neuron.New(),
	}
	if inC != outC || stride != 1 {
		b.SCConv = layers.NewConv2d(name+".sc", inC, outC, 1, stride, 0, false, r)
		b.SCBN = layers.NewBatchNorm(name+".scbn", outC)
	}
	return b
}

// Forward runs one timestep through both paths and the output neuron.
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h := b.Conv1.Forward(x, train)
	h = b.BN1.Forward(h, train)
	h = b.LIF1.Forward(h, train)
	h = b.Conv2.Forward(h, train)
	h = b.BN2.Forward(h, train)
	sc := x
	if b.SCConv != nil {
		sc = b.SCConv.Forward(x, train)
		sc = b.SCBN.Forward(sc, train)
	}
	if !h.SameShape(sc) {
		panic(fmt.Sprintf("snn: residual shapes diverge: %v vs %v", h.Shape(), sc.Shape()))
	}
	return b.LIF2.Forward(tensor.Add(h, sc), train)
}

// ForwardSeq runs all T timesteps time-major through both paths: the
// sublayer chains are driven by the tape engine (so the inner convolutions
// get the fused batched-timestep GEMM), with the per-timestep addition in
// between. Identical to T Forward calls.
func (b *ResidualBlock) ForwardSeq(xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	main := tape.Run([]tape.Layer{b.Conv1, b.BN1, b.LIF1, b.Conv2, b.BN2}, xs, train)
	sc := xs
	if b.SCConv != nil {
		sc = tape.Run([]tape.Layer{b.SCConv, b.SCBN}, xs, train)
	}
	sums := make([]*tensor.Tensor, len(xs))
	for t := range xs {
		if !main[t].SameShape(sc[t]) {
			panic(fmt.Sprintf("snn: residual shapes diverge: %v vs %v", main[t].Shape(), sc[t].Shape()))
		}
		sums[t] = tensor.Add(main[t], sc[t])
	}
	return tape.Run([]tape.Layer{b.LIF2}, sums, train)
}

// BackwardSeq replays the whole tape time-major through both paths: each
// sublayer chain is driven by tape.RunBackward, so fused sequence backwards
// (Conv2d's stacked-timestep SDDMM) engage.
// Accumulates the same parameter gradients and returns the same input
// gradients as T Backward calls, up to float summation order.
func (b *ResidualBlock) BackwardSeq(dys []*tensor.Tensor) []*tensor.Tensor {
	dsums := tape.RunBackward([]tape.Layer{b.LIF2}, dys)
	dmain := tape.RunBackward([]tape.Layer{b.Conv1, b.BN1, b.LIF1, b.Conv2, b.BN2}, dsums)
	dsc := dsums
	if b.SCConv != nil {
		dsc = tape.RunBackward([]tape.Layer{b.SCConv, b.SCBN}, dsums)
	}
	out := make([]*tensor.Tensor, len(dys))
	for t := range out {
		out[t] = tensor.Add(dmain[t], dsc[t])
	}
	return out
}

// Backward reverses one timestep through both paths.
func (b *ResidualBlock) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dsum := b.LIF2.Backward(dy)
	dmain := b.BN2.Backward(dsum)
	dmain = b.Conv2.Backward(dmain)
	dmain = b.LIF1.Backward(dmain)
	dmain = b.BN1.Backward(dmain)
	dmain = b.Conv1.Backward(dmain)
	dsc := dsum
	if b.SCConv != nil {
		dsc = b.SCBN.Backward(dsum)
		dsc = b.SCConv.Backward(dsc)
	}
	return tensor.Add(dmain, dsc)
}

// Params returns the parameters of every sublayer.
func (b *ResidualBlock) Params() []*layers.Param {
	var ps []*layers.Param
	b.WalkLayers(func(l layers.Layer) { ps = append(ps, l.Params()...) })
	return ps
}

// Reset clears every sublayer's temporal state.
func (b *ResidualBlock) Reset() {
	b.WalkLayers(func(l layers.Layer) { l.Reset() })
}

// WalkLayers exposes the block's children for introspection.
func (b *ResidualBlock) WalkLayers(fn func(layers.Layer)) {
	fn(b.Conv1)
	fn(b.BN1)
	fn(b.LIF1)
	fn(b.Conv2)
	fn(b.BN2)
	if b.SCConv != nil {
		fn(b.SCConv)
		fn(b.SCBN)
	}
	fn(b.LIF2)
}
