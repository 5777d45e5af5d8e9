// Package sparse implements the sparsity substrate shared by every sparse
// training method in this repository: layerwise sparsity allocation (ERK and
// uniform), binary mask construction, deterministic magnitude/gradient top-k
// selection, compressed sparse row storage, the training/inference
// memory-footprint model of the paper's Section III-D, and the sparse compute
// engine — the CSR/SDDMM kernels and the synapse table behind Conv2d, whose
// 1×1 case is Linear, and the inference engine's conv stages.
//
// # Storage formats
//
//   - CSR (csr.go) stores a weight matrix row-compressed, one row per output
//     unit/filter. EncodeCSRWithMask keys the pattern on the 0/1 mask rather
//     than the values, so grown-at-zero connections stay addressable;
//     GatherValues refreshes values in O(nnz) between rewires.
//   - ConvTable (convtable.go) is the synapse table of a convolution: its
//     live weights grouped by input channel, then by kernel offset, then by
//     output channel, the access order of "an incoming spike reaches one
//     output per offset". Each synapse also records its CSR index. Training
//     keys it on the mask and serving on the non-zero weights or quantized
//     levels. Its walks are the only event-driven conv code: Scatter (the
//     forward, for training and for the inference engine's conv stages) and
//     ScatterGrad (the live-weight gradient, written in CSR order).
//   - Events (event.go) is a values-free CSR pattern of a binary {0,1}
//     activation: per row, the ascending list of active columns. It is how
//     the tape records spike inputs, one row per batch sample; a row is the
//     spike list ScatterGrad walks.
//
// # Kernel naming scheme
//
// The CSR operand is always called A; dense tensors keep their math-side
// names (B for the right operand). Suffixes compose left to right:
//
//   - "ATB"/"ABT" follow the dense-kernel convention in internal/tensor:
//     Aᵀ·B and A·Bᵀ respectively. Plain CSRMatMul is A·B.
//   - "Serial" variants run on the calling goroutine, for callers that
//     already parallelize across the batch (the conv layers); "Into"
//     variants write (or accumulate) into a caller-owned destination.
//
// The gradient kernel CSRGradABTSerial is an SDDMM (sampled dense–dense
// matrix multiplication): it computes dense·dense products only at the
// stored positions of a CSR pattern, which is exactly the weight gradient
// restricted to live weights, dW = dy·colᵀ (a linear layer's col is its
// input sample). ConvTable.ScatterGrad computes the same values from the
// spike positions without building col.
//
// Every kernel visits contributions in the same ascending-index order as its
// dense counterpart and multiplies by exact {0,1} spike values where
// applicable, so for finite inputs the sparse, event-driven and dense paths
// produce bit-identical results; the property tests in this package and in
// internal/layers pin that equivalence.
package sparse
