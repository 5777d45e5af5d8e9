package layers

import "ndsnn/internal/sparse"

// Sparse compute engine: masked parameters cache a CSR encoding of their
// weight matrix so Conv2d/Linear can run sparsity-proportional kernels
// instead of dense GEMM. The cache has two freshness levels:
//
//   - Pattern: the CSR topology equals the mask. It is invalidated explicitly
//     (InvalidateCSR) whenever the mask changes — drop-and-grow rewires, mask
//     initialization, LTH pruning, checkpoint restores, ApplyMask.
//   - Values: weight values drift every optimizer step, so SparseW re-gathers
//     them into the cached pattern on every call. The gather is O(nnz) and
//     disappears next to the O(nnz·columns) GEMM it feeds.
//
// Grown-at-zero weights are part of the pattern (EncodeCSRWithMask keys on
// the mask, not the value), so a freshly rewired layer computes through the
// same positions the mask declares live.

// CSRMaxDensity is the live-weight density above which layers stay on the
// dense GEMM path: around 50% density the per-nonzero index overhead of CSR
// outweighs the skipped work. It is a variable so tests can force either
// path (0 disables CSR, 1 enables it at any density); the threshold is
// consulted on every SparseW call, so changing it affects live parameters
// without an explicit invalidation.
var CSRMaxDensity = 0.5

// EventMaxRate is the spike occupancy (fraction of non-zero im2col entries
// over all of a sample's timesteps) above which the event-driven forward
// falls back to im2col and the weight-only CSR kernel. The synapse walk does
// one indexed add per (spike, kernel offset, live synapse), where the CSR
// kernel streams every live weight across all output positions. Timed
// against im2col plus the CSR kernel on 16×16 maps at 8–64 channels and
// weight densities 0.1–0.5 (2-CPU host), the walk won up to an occupancy of
// about 0.3–0.4 at stride 1 (0.2–0.3 at 64 channels) but only about 0.2 at
// stride 2; 0.3 sits at the stride-1 crossover, where most convs run. Like
// CSRMaxDensity it is a variable so tests and benchmarks can force either
// path (0 disables the event path, 1 takes it for any binary input).
var EventMaxRate = 0.3

// SparseW returns the cached CSR encoding of the parameter's weight matrix
// (reshaped to [Dim(0), Size/Dim(0)] — one row per output unit/filter), with
// values freshly gathered from W. It returns nil when the parameter is
// unmasked or too dense for CSR to win; callers fall back to dense GEMM.
//
// Not safe for concurrent use: layers call it once per Forward/Backward
// before fanning out across the batch.
func (p *Param) SparseW() *sparse.CSR {
	if !p.csrEligible() {
		return nil
	}
	if p.csr != nil {
		p.csr.GatherValues(p.W)
		return p.csr
	}
	rows := p.W.Dim(0)
	cols := p.W.Size() / rows
	p.csr = sparse.EncodeCSRWithMask(p.W.Reshape(rows, cols), p.Mask.Reshape(rows, cols))
	return p.csr
}

// csrEligible reports whether the sparse path should engage: the parameter
// is masked and its live-weight density is at most CSRMaxDensity. The
// density is counted once per topology (the pattern is fixed until the next
// invalidation); the threshold is compared on every call (O(1)) so flipping
// it takes effect immediately on live parameters.
func (p *Param) csrEligible() bool {
	if p.Mask == nil {
		return false
	}
	if p.csrDensity < 0 {
		p.csrDensity = float64(p.ActiveCount()) / float64(p.W.Size())
	}
	return p.csrDensity <= CSRMaxDensity
}

// CSRCached reports whether a CSR encoding is currently cached — an
// introspection hook for tests that pin the cache-discipline contract
// (e.g. that weight-mutating operations like quantization invalidate).
func (p *Param) CSRCached() bool { return p.csr != nil }

// InvalidateCSR drops the cached CSR encoding and density. Call
// after any change to the mask topology; value-only changes (optimizer
// steps, weight rewinds) do not need it because SparseW re-gathers values on
// every call.
func (p *Param) InvalidateCSR() {
	p.csr = nil
	p.csrDensity = -1
}
