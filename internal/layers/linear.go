package layers

import (
	"fmt"

	"ndsnn/internal/metrics"
	"ndsnn/internal/rng"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// Linear is a fully-connected layer: y = x·Wᵀ + b for x of shape [B,In].
type Linear struct {
	In, Out int

	// Weight has shape [Out, In]; Bias (optional) has shape [Out].
	Weight *Param
	Bias   *Param

	// xs is the layer's BPTT tape: per-timestep inputs, event-encoded when
	// they are binary spike tensors (see package tape). BackwardSeq replays it.
	xs     tape.Stack
	events eventTally
}

// NewLinear constructs a fully-connected layer with Kaiming-normal weights.
func NewLinear(name string, in, out int, withBias bool, r *rng.RNG) *Linear {
	w := tensor.New(out, in)
	KaimingNormal(w, in, r)
	l := &Linear{In: in, Out: out, Weight: NewParam(name+".w", w)}
	if withBias {
		l.Bias = NewParam(name+".b", tensor.New(out))
		l.Bias.NoDecay = true
		l.Bias.NoPrune = true
	}
	return l
}

// Forward computes one timestep: y = x·Wᵀ (+ bias).
//
// Like Conv2d, a CSR-encoded weight combined with a binary spike input below
// EventMaxRate occupancy takes the dual-sparse event-driven path (each
// incoming spike scatter-adds one CSC weight column); analog or dense-weight
// inputs use the weight-only CSR or dense GEMM. All paths are bit-identical.
// During training the input is recorded on the layer's tape, event-encoded
// when binary.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("layers: %s expects [B,%d] input, got %v", l.Weight.Name, l.In, x.Shape()))
	}
	var out *tensor.Tensor
	var tally metrics.EventStats
	tally.Forwards = int64(x.Dim(0))
	if wcsr := l.Weight.SparseW(); wcsr != nil {
		if ev, ok := sparse.EncodeEvents(x); ok {
			tally.Entries = int64(x.Size())
			tally.ActiveEntries = int64(ev.NNZ())
			// The maxRate > 0 guard keeps EventMaxRate=0 a true kill
			// switch even for all-zero (occupancy 0) inputs.
			if maxRate := EventMaxRate; maxRate > 0 && ev.Occupancy() <= maxRate {
				out = tensor.New(x.Dim(0), l.Out)
				sparse.MatMulEventsCSCInto(out, ev, l.Weight.SparseWCSC(), false)
				tally.EventForwards = tally.Forwards
			}
		}
		if out == nil {
			out = tensor.New(x.Dim(0), l.Out)
			sparse.MatMulDenseCSRTInto(out, x, wcsr, false)
		}
	} else {
		out = tensor.MatMulABT(x, l.Weight.W)
	}
	l.events.add(tally)
	if l.Bias != nil {
		b := x.Dim(0)
		for bi := 0; bi < b; bi++ {
			row := out.Data[bi*l.Out : (bi+1)*l.Out]
			for j := range row {
				row[j] += l.Bias.W.Data[j]
			}
		}
	}
	if train {
		l.xs.Push(x)
	}
	return out
}

// Backward accumulates dW += dyᵀ·x and db += Σ_b dy for the most recent
// recorded timestep and returns dx = dy·W: the T=1 case of BackwardSeq.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return l.BackwardSeq([]*tensor.Tensor{dy})[0]
}

// BackwardSeq replays the tape for the last T recorded timesteps, given their
// output gradients dys[0..T-1], mirroring Conv2d.BackwardSeq. When every
// record is event-encoded, the weight is CSR and active-position-only
// gradients are armed, the T recorded spike patterns are row-stacked into one
// [T·B, In] pattern (sparse.StackTimesteps: timesteps become extra batch
// samples) and consumed by ONE events SDDMM against the row-stacked dy, and
// backward-data likewise pays a single weight traversal for all T timesteps.
// Otherwise the timesteps replay newest first over the materialized record:
// the sparse path chooses between the column-strided reference and the
// blocked/transposed SDDMM by layer width (gradATBTransposeMinCols), and
// dense weight gradients (growth batches, unmasked layers) take dyᵀ·x. Input
// gradients are identical on both paths; the fused one accumulates weight
// and bias gradients over the timesteps in ascending instead of descending
// order (float rounding only).
func (l *Linear) BackwardSeq(dys []*tensor.Tensor) []*tensor.Tensor {
	T := len(dys)
	recs := make([]tape.Rec, T)
	for t := T - 1; t >= 0; t-- {
		recs[t] = l.xs.Pop()
	}
	wcsr := l.Weight.SparseW()
	sparseGrad := wcsr != nil && l.Weight.SparseGradOK
	fused := sparseGrad && T > 0
	for _, rec := range recs {
		fused = fused && rec.IsEvents()
	}
	dxs := make([]*tensor.Tensor, T)
	if fused {
		evs := make([]*sparse.Events, T)
		for t, rec := range recs {
			evs[t] = rec.Events()
		}
		b := dys[0].Dim(0)
		dyS := tensor.New(T*b, l.Out)
		for t, dy := range dys {
			copy(dyS.Data[t*b*l.Out:(t+1)*b*l.Out], dy.Data)
		}
		vals := make([]float32, wcsr.NNZ())
		sparse.CSRGradATBEventsInto(vals, wcsr, dyS, sparse.StackTimesteps(evs))
		sparse.AddValsInto(l.Weight.Grad, wcsr, vals)
		l.addBiasGrad(dyS)
		// One weight traversal serves every timestep's input gradient; the
		// per-timestep views alias disjoint slices of the stacked result.
		dxS := l.backwardData(dyS, wcsr)
		for t := range dxs {
			dxs[t] = tensor.FromSlice(dxS.Data[t*b*l.In:(t+1)*b*l.In], b, l.In)
		}
		return dxs
	}
	for t := T - 1; t >= 0; t-- {
		// Materialize decodes an event record transiently, one timestep at
		// a time, so peak cache memory stays at the event-encoded level.
		dy, x := dys[t], recs[t].Materialize()
		if sparseGrad {
			vals := make([]float32, wcsr.NNZ())
			if wcsr.Cols >= gradATBTransposeMinCols {
				sparse.CSRGradATBTransposedInto(vals, wcsr, dy, x)
			} else {
				sparse.CSRGradATBInto(vals, wcsr, dy, x)
			}
			sparse.AddValsInto(l.Weight.Grad, wcsr, vals)
		} else {
			tensor.MatMulATBInto(l.Weight.Grad, dy, x, true)
		}
		l.addBiasGrad(dy)
		dxs[t] = l.backwardData(dy, wcsr)
	}
	return dxs
}

// addBiasGrad adds every row of dy into the bias gradient.
func (l *Linear) addBiasGrad(dy *tensor.Tensor) {
	if l.Bias == nil {
		return
	}
	for i := 0; i < dy.Dim(0); i++ {
		for j, v := range dy.Data[i*l.Out : (i+1)*l.Out] {
			l.Bias.Grad.Data[j] += v
		}
	}
}

// backwardData returns dx = dy·W, through wcsr when the weight is CSR-encoded.
func (l *Linear) backwardData(dy *tensor.Tensor, wcsr *sparse.CSR) *tensor.Tensor {
	if wcsr != nil {
		dx := tensor.New(dy.Dim(0), l.In)
		sparse.MatMulDenseCSRInto(dx, dy, wcsr, false)
		return dx
	}
	return tensor.MatMul(dy, l.Weight.W)
}

// EventStats returns the event-driven fast-path counters accumulated since
// the last ResetEventStats.
func (l *Linear) EventStats() metrics.EventStats { return l.events.snapshot() }

// ResetEventStats zeroes the event-path counters.
func (l *Linear) ResetEventStats() { l.events.reset() }

// Params returns the weight and optional bias.
func (l *Linear) Params() []*Param {
	if l.Bias != nil {
		return []*Param{l.Weight, l.Bias}
	}
	return []*Param{l.Weight}
}

// Reset drops cached timesteps.
func (l *Linear) Reset() { l.xs.Clear() }
