// Package sparse implements the sparsity substrate shared by every sparse
// training method in this repository: layerwise sparsity allocation (ERK and
// uniform), binary mask construction, deterministic magnitude/gradient top-k
// selection, compressed sparse row/column storage, the training/inference
// memory-footprint model of the paper's Section III-D, and the sparse compute
// engine — the CSR/SDDMM/event kernels behind Conv2d, whose 1×1 case is
// Linear.
//
// # Storage formats
//
//   - CSR (csr.go) stores a weight matrix row-compressed, one row per output
//     unit/filter. EncodeCSRWithMask keys the pattern on the 0/1 mask rather
//     than the values, so grown-at-zero connections stay addressable;
//     GatherValues refreshes values in O(nnz) between rewires.
//   - CSC (event.go) is the column-compressed transpose view used when the
//     access pattern is "incoming spike selects a weight column" (the
//     event-driven forward, CSCMatMulEventsSerialInto).
//   - Events (event.go) is a values-free CSR pattern of a binary {0,1}
//     activation: per row, the ascending list of active columns. It is how
//     spike rasters and im2col spike columns enter the event-driven kernels.
//
// # Kernel naming scheme
//
// The CSR operand is always called A; dense tensors keep their math-side
// names (B for the right operand). Suffixes compose left to right:
//
//   - "ATB"/"ABT" follow the dense-kernel convention in internal/tensor:
//     Aᵀ·B and A·Bᵀ respectively. Plain CSRMatMul is A·B.
//   - "Events" means the binary operand is an Events pattern and the kernel
//     is fully event-driven (work ∝ spike count).
//   - "Serial" variants run on the calling goroutine, for callers that
//     already parallelize across the batch (the conv layers); "Into"
//     variants write (or accumulate) into a caller-owned destination.
//
// The gradient kernels CSRGradABTSerial and CSRGradABTEventsSerial are
// SDDMM (sampled dense–dense matrix multiplication) forms: they compute
// dense·dense products only at the stored positions of a CSR pattern, which
// is exactly the weight gradient restricted to live weights, dW = dy·colᵀ
// (a linear layer's col is its input sample).
//
// Every kernel visits contributions in the same ascending-index order as its
// dense counterpart and multiplies by exact {0,1} spike values where
// applicable, so for finite inputs the sparse, event-driven and dense paths
// produce bit-identical results; the property tests in this package and in
// internal/layers pin that equivalence.
package sparse
