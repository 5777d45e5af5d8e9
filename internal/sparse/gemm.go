package sparse

import (
	"fmt"

	"ndsnn/internal/tensor"
)

// CSR GEMM kernels: the sparsity-aware compute engine behind Conv2d (and
// Linear, its 1×1 case).
// All kernels compute exactly what their dense counterparts in
// internal/tensor compute, but touch only the stored (active) positions, so
// training cost scales with live-weight density instead of layer size.
//
// Accumulation visits non-zeros in the same ascending-index order as the
// dense kernels (which skip exact zeros), so for finite inputs the results
// are bit-identical to the dense path.
//
// Naming: the CSR operand is A. "ATB"/"ABT" follow the dense kernel
// convention (Aᵀ·B, A·Bᵀ).

// CSRMatMulSerialInto computes dst = A·B (or dst += A·B when accumulate) for
// A in CSR form [m,k] and dense B [k,n], on the calling goroutine: its
// callers (the conv layers) already parallelize across the batch. This is
// the conv forward primitive: sparse filters × dense im2col columns.
func CSRMatMulSerialInto(dst *tensor.Tensor, a *CSR, b *tensor.Tensor, accumulate bool) {
	n := checkCSRMatMul(dst, a, b)
	od, bd := dst.Data, b.Data
	for r := 0; r < a.Rows; r++ {
		orow := od[r*n : (r+1)*n]
		if !accumulate {
			for j := range orow {
				orow[j] = 0
			}
		}
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			v := a.Val[p]
			if v == 0 {
				continue
			}
			brow := bd[int(a.ColIdx[p])*n:]
			brow = brow[:n]
			for j, bv := range brow {
				orow[j] += v * bv
			}
		}
	}
}

func checkCSRMatMul(dst *tensor.Tensor, a *CSR, b *tensor.Tensor) int {
	bk, n := dims2(b, "CSRMatMul b")
	if bk != a.Cols {
		panic(fmt.Sprintf("sparse: CSRMatMul inner dims %d vs %d", a.Cols, bk))
	}
	dm, dn := dims2(dst, "CSRMatMul dst")
	if dm != a.Rows || dn != n {
		panic(fmt.Sprintf("sparse: CSRMatMul dst shape [%d,%d], want [%d,%d]", dm, dn, a.Rows, n))
	}
	return n
}

// CSRMatMulATBSerialInto computes dst = Aᵀ·B (or += when accumulate) for A
// in CSR form [m,k] and dense B [m,n], on the calling goroutine; dst is
// [k,n]. This is the conv backward-data primitive: dcol = Wᵀ·dy.
func CSRMatMulATBSerialInto(dst *tensor.Tensor, a *CSR, b *tensor.Tensor, accumulate bool) {
	n := checkCSRMatMulATB(dst, a, b)
	od, bd := dst.Data, b.Data
	if !accumulate {
		for i := range od {
			od[i] = 0
		}
	}
	for r := 0; r < a.Rows; r++ {
		brow := bd[r*n : (r+1)*n]
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			v := a.Val[p]
			if v == 0 {
				continue
			}
			c := int(a.ColIdx[p])
			orow := od[c*n : (c+1)*n]
			for j, bv := range brow {
				orow[j] += v * bv
			}
		}
	}
}

func checkCSRMatMulATB(dst *tensor.Tensor, a *CSR, b *tensor.Tensor) int {
	bm, n := dims2(b, "CSRMatMulATB b")
	if bm != a.Rows {
		panic(fmt.Sprintf("sparse: CSRMatMulATB inner dims %d vs %d", a.Rows, bm))
	}
	dk, dn := dims2(dst, "CSRMatMulATB dst")
	if dk != a.Cols || dn != n {
		panic(fmt.Sprintf("sparse: CSRMatMulATB dst shape [%d,%d], want [%d,%d]", dk, dn, a.Cols, n))
	}
	return n
}

// CSRGradABTSerial accumulates vals[p] += Σ_j a[r,j]·b[c,j] for every stored
// position (r,c) of the pattern — the sampled dense·denseᵀ product (SDDMM)
// that computes conv weight gradients only where the mask is live:
// dW[f,q] = Σ_p dy[f,p]·col[q,p]. a is [pattern.Rows, q], b is
// [pattern.Cols, q], vals is aligned with pattern.Val. Serial because the
// conv layer already parallelizes across the batch.
func CSRGradABTSerial(vals []float32, pattern *CSR, a, b *tensor.Tensor) {
	q := checkCSRGrad(vals, pattern, a, b, pattern.Rows, pattern.Cols)
	ad, bd := a.Data, b.Data
	for r := 0; r < pattern.Rows; r++ {
		arow := ad[r*q : (r+1)*q]
		for p := pattern.RowPtr[r]; p < pattern.RowPtr[r+1]; p++ {
			brow := bd[int(pattern.ColIdx[p])*q:]
			brow = brow[:q]
			var s float32
			for j, av := range arow {
				s += av * brow[j]
			}
			vals[p] += s
		}
	}
}

func checkCSRGrad(vals []float32, pattern *CSR, a, b *tensor.Tensor, wantARows, wantBRows int) int {
	am, q := dims2(a, "CSRGrad a")
	bk, q2 := dims2(b, "CSRGrad b")
	if q != q2 {
		panic(fmt.Sprintf("sparse: CSRGrad inner dims %d vs %d", q, q2))
	}
	if am != wantARows || bk != wantBRows {
		panic(fmt.Sprintf("sparse: CSRGrad operands [%d,·]/[%d,·] vs pattern [%d,%d]", am, bk, wantARows, wantBRows))
	}
	if len(vals) != pattern.NNZ() {
		panic(fmt.Sprintf("sparse: CSRGrad vals length %d, want %d", len(vals), pattern.NNZ()))
	}
	return q
}

// AddValsInto scatter-adds pattern-aligned values into a dense tensor with
// pattern.Rows·pattern.Cols elements: dst[r,ColIdx[p]] += vals[p]. Used to
// fold sparse weight-gradient accumulators back into the dense Grad buffer.
func AddValsInto(dst *tensor.Tensor, pattern *CSR, vals []float32) {
	if dst.Size() != pattern.Rows*pattern.Cols {
		panic("sparse: AddValsInto size mismatch")
	}
	if len(vals) != pattern.NNZ() {
		panic(fmt.Sprintf("sparse: AddValsInto vals length %d, want %d", len(vals), pattern.NNZ()))
	}
	od := dst.Data
	for r := 0; r < pattern.Rows; r++ {
		base := r * pattern.Cols
		for p := pattern.RowPtr[r]; p < pattern.RowPtr[r+1]; p++ {
			od[base+int(pattern.ColIdx[p])] += vals[p]
		}
	}
}

func dims2(t *tensor.Tensor, what string) (int, int) {
	if t.NumDims() != 2 {
		panic(fmt.Sprintf("sparse: %s must be 2-D, got shape %v", what, t.Shape()))
	}
	return t.Dim(0), t.Dim(1)
}
