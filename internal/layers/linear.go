package layers

import (
	"fmt"

	"ndsnn/internal/metrics"
	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

// Linear is a fully-connected layer: y = x·Wᵀ + b for x of shape [B,In].
//
// It trains as the 1×1 case of Conv2d: each [B,In] input is viewed as a
// [B,In,1,1] map and runs through a K=1 convolution that shares Weight and
// Bias, so the event-driven forward, the tape and its fused replay are the
// convolution's.
type Linear struct {
	In, Out int

	// Weight has shape [Out, In]; Bias (optional) has shape [Out].
	Weight *Param
	Bias   *Param

	// conv owns the layer's tape and event counters.
	conv Conv2d
}

// NewLinear constructs a fully-connected layer with Kaiming-normal weights.
func NewLinear(name string, in, out int, withBias bool, r *rng.RNG) *Linear {
	w := tensor.New(out, in)
	KaimingNormal(w, in, r)
	l := &Linear{
		In: in, Out: out,
		Weight: NewParam(name+".w", w),
		conv:   Conv2d{InC: in, OutC: out, K: 1, Stride: 1},
	}
	if withBias {
		l.Bias = NewParam(name+".b", tensor.New(out))
		l.Bias.NoDecay = true
		l.Bias.NoPrune = true
	}
	return l
}

// asConv returns the 1×1 convolution pointed at the current Weight and
// Bias, so a caller that replaces either Param is followed.
func (l *Linear) asConv() *Conv2d {
	l.conv.Weight, l.conv.Bias = l.Weight, l.Bias
	return &l.conv
}

// Forward computes one timestep: the T=1 case of ForwardSeq.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.ForwardSeq([]*tensor.Tensor{x}, train)[0]
}

// ForwardSeq computes y = x·Wᵀ (+ bias) for all T timesteps through
// Conv2d.ForwardSeq: a sample whose inputs are binary at every timestep
// with im2col occupancy at most EventMaxRate walks the synapse table of a
// CSR weight, any other sample the weight-only CSR or dense GEMM.
// All paths are bit-identical. During training the [B,In,1,1] views are
// recorded on the tape, event-encoded when binary.
func (l *Linear) ForwardSeq(xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	views := make([]*tensor.Tensor, len(xs))
	for t, x := range xs {
		if x.NumDims() != 2 || x.Dim(1) != l.In {
			panic(fmt.Sprintf("layers: %s expects [B,%d] input, got %v", l.Weight.Name, l.In, x.Shape()))
		}
		views[t] = x.Reshape(x.Dim(0), l.In, 1, 1)
	}
	ys := l.asConv().ForwardSeq(views, train)
	for t, y := range ys {
		ys[t] = y.Reshape(y.Dim(0), l.Out)
	}
	return ys
}

// Backward accumulates dW += dyᵀ·x and db += Σ_b dy for the most recent
// recorded timestep and returns dx = dy·W: the T=1 case of BackwardSeq.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return l.BackwardSeq([]*tensor.Tensor{dy})[0]
}

// BackwardSeq replays the tape for the last T recorded timesteps, given
// their [B,Out] output gradients, through Conv2d.BackwardSeq: the fused
// event replay when every record is event-encoded, the weight is CSR and
// active-position-only gradients are armed, the per-timestep replay
// otherwise. It returns the [B,In] input gradient of every timestep.
func (l *Linear) BackwardSeq(dys []*tensor.Tensor) []*tensor.Tensor {
	views := make([]*tensor.Tensor, len(dys))
	for t, dy := range dys {
		views[t] = dy.Reshape(dy.Dim(0), l.Out, 1, 1)
	}
	dxs := l.asConv().BackwardSeq(views)
	for t, dx := range dxs {
		dxs[t] = dx.Reshape(dx.Dim(0), l.In)
	}
	return dxs
}

// EventStats returns the event-driven fast-path counters accumulated since
// the last ResetEventStats.
func (l *Linear) EventStats() metrics.EventStats { return l.conv.EventStats() }

// ResetEventStats zeroes the event-path counters.
func (l *Linear) ResetEventStats() { l.conv.ResetEventStats() }

// Params returns the weight and optional bias.
func (l *Linear) Params() []*Param {
	if l.Bias != nil {
		return []*Param{l.Weight, l.Bias}
	}
	return []*Param{l.Weight}
}

// Reset drops cached timesteps.
func (l *Linear) Reset() { l.conv.Reset() }
