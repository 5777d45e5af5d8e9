// Package sparse implements the sparsity substrate shared by every sparse
// training method in this repository: layerwise sparsity allocation (ERK and
// uniform), binary mask construction, deterministic magnitude/gradient top-k
// selection, compressed sparse row/column storage, the training/inference
// memory-footprint model of the paper's Section III-D, and the sparse compute
// engine — the CSR/SDDMM/event kernel zoo behind Conv2d and Linear.
//
// # Storage formats
//
//   - CSR (csr.go) stores a weight matrix row-compressed, one row per output
//     unit/filter. EncodeCSRWithMask keys the pattern on the 0/1 mask rather
//     than the values, so grown-at-zero connections stay addressable;
//     GatherValues refreshes values in O(nnz) between rewires.
//   - CSC (event.go) is the column-compressed transpose view used when the
//     access pattern is "incoming spike selects a weight column" (the
//     event-driven linear forward).
//   - Events (event.go) is a values-free CSR pattern of a binary {0,1}
//     activation: per row, the ascending list of active columns. It is how
//     spike rasters and im2col spike columns enter the event-driven kernels.
//
// # Kernel naming scheme
//
// The CSR operand is always called A; dense tensors keep their math-side
// names (B for the right operand, X for batch-major activations). Suffixes
// compose left to right:
//
//   - "ATB"/"ABT" follow the dense-kernel convention in internal/tensor:
//     Aᵀ·B and A·Bᵀ respectively. Plain CSRMatMul is A·B.
//   - "MatMulDenseCSR*" puts the dense operand on the left (X·A, X·Aᵀ),
//     which lets batch-major activations parallelize over batch rows.
//   - "Events" means the binary operand is an Events pattern and the kernel
//     is fully event-driven (work ∝ spike count).
//   - "Serial" variants run on the calling goroutine, for callers that
//     already parallelize across the batch (the conv layers); "Into"
//     variants write (or accumulate) into a caller-owned destination.
//
// The gradient kernels CSRGradABTSerial and CSRGradATBInto are SDDMM
// (sampled dense–dense matrix multiplication) forms: they compute dense·dense
// products only at the stored positions of a CSR pattern, which is exactly
// the weight gradient restricted to live weights — dW = dy·colᵀ for conv,
// dW = dyᵀ·x for linear.
//
// Every kernel visits contributions in the same ascending-index order as its
// dense counterpart and multiplies by exact {0,1} spike values where
// applicable, so for finite inputs the sparse, event-driven and dense paths
// produce bit-identical results; the property tests in this package and in
// internal/layers pin that equivalence.
//
// # Thread scalability
//
// The Workers knob (parallel.go) gates kernel-level parallelism: banded
// variants of the event forwards (CSCBands pre-buckets the weight matrix
// into disjoint destination row bands) and nnz-row-blocked variants of the
// SDDMM gradients fan one kernel call out across the persistent worker pool
// in internal/tensor. Band and block boundaries derive from the pattern and
// the knob alone — never from GOMAXPROCS — and every parallel kernel
// preserves the serial per-element summation order, so results stay
// bit-identical to the serial kernels at any thread budget. The integer and
// float event accumulates are register-blocked (4×-unrolled) in their
// primary forms, with *Scalar reference kernels kept for pinning.
package sparse
