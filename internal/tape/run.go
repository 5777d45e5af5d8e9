package tape

import "ndsnn/internal/tensor"

// Layer is the slice of the layer contract the execution engine needs:
// per-timestep forward and backward. internal/layers.Layer satisfies it
// structurally; the engine deliberately does not import the layer library so
// the dependency arrow keeps pointing downward.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
}

// SequenceLayer is implemented by layers that can consume a whole timestep
// sequence at once — the time-major fast path. ForwardSeq must be
// semantically identical to T successive Forward calls (including what it
// records for backward); it exists so a layer can amortize work across
// timesteps, e.g. Conv2d gates a sample's event-driven forward on the spike
// occupancy of all T timesteps together. Conv2d, Linear and ResidualBlock have no separate
// per-timestep forward: their Forward is ForwardSeq's T=1 case.
type SequenceLayer interface {
	Layer
	ForwardSeq(xs []*tensor.Tensor, train bool) []*tensor.Tensor
}

// SequenceBackwardLayer is the backward half of the time-major fast path: a
// layer that can replay its whole tape at once. BackwardSeq consumes the
// per-timestep output gradients (dys[t] for t = 0..T-1) and must accumulate
// the same parameter gradients (up to float summation order) and return the
// same input gradients as T Backward calls in reverse order — fusing the
// timesteps lets Conv2d pay one backward-data weight traversal for all T.
// Conv2d, Linear and ResidualBlock implement Backward as
// BackwardSeq's T=1 case.
type SequenceBackwardLayer interface {
	Layer
	BackwardSeq(dys []*tensor.Tensor) []*tensor.Tensor
}

// Run executes the pipeline time-major: each layer processes all T timesteps
// (via ForwardSeq when implemented, else T in-order Forward calls) before the
// next layer runs. For temporally-unrolled feedforward networks this is
// equivalent to the step-major schedule — inter-layer data flow is
// per-timestep, and within-layer recurrence (LIF membranes) sees its
// timesteps in the same order — so outputs are identical; only the execution
// order and the fusion opportunities change. Returns the final layer's
// per-timestep outputs.
func Run(ls []Layer, xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	cur := xs
	for _, l := range ls {
		if sl, ok := l.(SequenceLayer); ok {
			cur = sl.ForwardSeq(cur, train)
			continue
		}
		next := make([]*tensor.Tensor, len(cur))
		for t, x := range cur {
			next[t] = l.Forward(x, train)
		}
		cur = next
	}
	return cur
}

// RunBackward replays the pipeline time-major in reverse: layers last to
// first, and within each layer timesteps T-1..0 — the order the per-layer
// cache stacks and the LIF error recursion expect. douts[t] is the loss
// gradient w.r.t. the timestep-t output of the final layer; the returned
// slice holds the input gradients per timestep (useful for composite layers
// and tests; whole-network callers usually discard it).
func RunBackward(ls []Layer, douts []*tensor.Tensor) []*tensor.Tensor {
	cur := append([]*tensor.Tensor(nil), douts...)
	for i := len(ls) - 1; i >= 0; i-- {
		if sb, ok := ls[i].(SequenceBackwardLayer); ok {
			cur = sb.BackwardSeq(cur)
			continue
		}
		for t := len(cur) - 1; t >= 0; t-- {
			cur[t] = ls[i].Backward(cur[t])
		}
	}
	return cur
}
