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

// EventMaxRate is the spike occupancy (fraction of non-zero activation
// entries) above which the event-driven forward falls back to the
// weight-only CSR kernel. The event kernels replace each stored weight's
// n-wide multiply-add sweep with one indexed add per spike, so they win
// while occupancy × (indexed-add cost) < (contiguous multiply-add cost);
// past roughly a third occupancy the scattered writes lose. Like
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

// SparseWCSC returns the cached CSC (column-compressed) view of the
// parameter's weight matrix with freshly gathered values — the access order
// the event-driven forward needs (incoming spikes select weight columns).
// It returns nil exactly when SparseW does; the CSC pattern is derived from
// the CSR pattern and shares its invalidation. Only the CSC values are
// gathered here, so callers that need both views (the conv forward, for its
// per-sample dense-input fallback) pay one O(nnz) gather per view, not two.
//
// Not safe for concurrent use, like SparseW.
func (p *Param) SparseWCSC() *sparse.CSC {
	if !p.csrEligible() {
		return nil
	}
	if p.csc == nil {
		if p.csr == nil {
			p.SparseW() // materialize the pattern once
		}
		// NewCSCFromCSR copies whatever values the CSR holds, which may be
		// stale if SparseW was not called this step — re-gather to be safe
		// (once per topology, O(nnz)).
		p.csc = sparse.NewCSCFromCSR(p.csr)
	}
	p.csc.GatherValues(p.W)
	return p.csc
}

// CSRCached reports whether a CSR encoding is currently cached — an
// introspection hook for tests that pin the cache-discipline contract
// (e.g. that weight-mutating operations like quantization invalidate).
func (p *Param) CSRCached() bool { return p.csr != nil }

// InvalidateCSR drops the cached CSR/CSC encodings and density. Call
// after any change to the mask topology; value-only changes (optimizer
// steps, weight rewinds) do not need it because SparseW re-gathers values on
// every call.
func (p *Param) InvalidateCSR() {
	p.csr = nil
	p.csc = nil
	p.csrDensity = -1
}
