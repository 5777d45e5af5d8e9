package layers

import (
	"fmt"

	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// Param is a trainable tensor with its accumulated gradient and an optional
// binary sparsity mask.
//
// Invariant maintained by the sparse trainers: when Mask is non-nil, W is
// element-wise consistent with it (W[i] == 0 wherever Mask[i] == 0). Grad is
// always computed dense — gradient-based growth criteria (RigL, NDSNN) need
// gradient magnitudes at inactive positions — and the optimizer re-applies
// the mask after every step.
type Param struct {
	// Name identifies the parameter in logs and checkpoints, e.g. "conv3.w".
	Name string
	// W holds the parameter values.
	W *tensor.Tensor
	// Grad holds the accumulated dense gradient, same shape as W.
	Grad *tensor.Tensor
	// Mask is nil for dense parameters; otherwise a 0/1 tensor shaped like W.
	Mask *tensor.Tensor
	// NoDecay excludes the parameter from weight decay (biases, BN affines).
	NoDecay bool
	// NoPrune excludes the parameter from sparsification entirely; the
	// sparse methods in this repository prune weight matrices only, never
	// biases or normalization affines (matching the reference
	// implementations of SET/RigL/NDSNN).
	NoPrune bool
	// SparseGradOK permits backward passes to compute this parameter's
	// weight gradient only at active (mask=1) positions. The trainers flip
	// it off for batches whose gradients feed a gradient-growth rewire
	// decision, which needs magnitudes at inactive positions too. It is
	// false by default so gradient checks and baselines stay exact.
	SparseGradOK bool

	// csr caches the CSR encoding of W managed by SparseW/InvalidateCSR;
	// csrDensity caches the mask's live-weight density for the threshold
	// check (-1 = not measured since the last invalidation).
	csr        *sparse.CSR
	csrDensity float64
}

// NewParam allocates a parameter with a zero gradient.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape()...), csrDensity: -1}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ApplyMask zeroes W wherever Mask is zero. It is a no-op for dense params.
// Callers reach for it right after changing the mask, so it also drops the
// cached CSR encoding.
func (p *Param) ApplyMask() {
	if p.Mask == nil {
		return
	}
	for i, m := range p.Mask.Data {
		if m == 0 {
			p.W.Data[i] = 0
		}
	}
	p.InvalidateCSR()
}

// ActiveCount returns the number of active (mask=1) weights, or the total
// element count for dense parameters.
func (p *Param) ActiveCount() int {
	if p.Mask == nil {
		return p.W.Size()
	}
	n := 0
	for _, m := range p.Mask.Data {
		if m != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of weights that are masked out (0 for dense).
func (p *Param) Sparsity() float64 {
	return 1 - float64(p.ActiveCount())/float64(p.W.Size())
}

// CheckMaskConsistency returns an error if any masked-out weight is non-zero.
func (p *Param) CheckMaskConsistency() error {
	if p.Mask == nil {
		return nil
	}
	for i, m := range p.Mask.Data {
		if m == 0 && p.W.Data[i] != 0 {
			return fmt.Errorf("param %s: weight %d is %v but masked out", p.Name, i, p.W.Data[i])
		}
	}
	return nil
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// PrunableParams filters params down to those eligible for sparsification.
func PrunableParams(params []*Param) []*Param {
	var out []*Param
	for _, p := range params {
		if !p.NoPrune {
			out = append(out, p)
		}
	}
	return out
}

// TotalElems returns the summed element count of the given params.
func TotalElems(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.W.Size()
	}
	return n
}

// TotalActive returns the summed active-weight count of the given params.
func TotalActive(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.ActiveCount()
	}
	return n
}

// GlobalSparsity returns the overall sparsity across the given params.
func GlobalSparsity(params []*Param) float64 {
	total := TotalElems(params)
	if total == 0 {
		return 0
	}
	return 1 - float64(TotalActive(params))/float64(total)
}
