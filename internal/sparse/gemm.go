package sparse

import (
	"fmt"

	"ndsnn/internal/tensor"
)

// CSR GEMM kernels: the sparsity-aware compute engine behind Conv2d/Linear.
// All kernels compute exactly what their dense counterparts in
// internal/tensor compute, but touch only the stored (active) positions, so
// training cost scales with live-weight density instead of layer size.
//
// Accumulation visits non-zeros in the same ascending-index order as the
// dense kernels (which skip exact zeros), so for finite inputs the results
// are bit-identical to the dense path.
//
// Naming: the CSR operand is A. "ATB"/"ABT" follow the dense kernel
// convention (Aᵀ·B, A·Bᵀ); the MatMulDense* kernels put the dense operand on
// the left, which lets batch-major activations parallelize over batch rows.

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

// MatMulDenseCSRTInto computes dst = X·Aᵀ (or += when accumulate) for dense
// X [bRows,k] and A in CSR form [m,k]; dst is [bRows,m]. Parallelized over
// X's rows. This is the linear forward primitive: y = x·Wᵀ.
func MatMulDenseCSRTInto(dst, x *tensor.Tensor, a *CSR, accumulate bool) {
	bRows, k := dims2(x, "MatMulDenseCSRT x")
	if k != a.Cols {
		panic(fmt.Sprintf("sparse: MatMulDenseCSRT inner dims %d vs %d", k, a.Cols))
	}
	dm, dn := dims2(dst, "MatMulDenseCSRT dst")
	if dm != bRows || dn != a.Rows {
		panic(fmt.Sprintf("sparse: MatMulDenseCSRT dst shape [%d,%d], want [%d,%d]", dm, dn, bRows, a.Rows))
	}
	xd, od := x.Data, dst.Data
	rowWork := 2 * (1 + a.NNZ())
	tensor.ParallelFor(bRows, rowWork, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xrow := xd[i*k : (i+1)*k]
			orow := od[i*a.Rows : (i+1)*a.Rows]
			for r := 0; r < a.Rows; r++ {
				var s float32
				for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
					s += a.Val[p] * xrow[a.ColIdx[p]]
				}
				if accumulate {
					orow[r] += s
				} else {
					orow[r] = s
				}
			}
		}
	})
}

// MatMulDenseCSRInto computes dst = X·A (or += when accumulate) for dense
// X [bRows,m] and A in CSR form [m,k]; dst is [bRows,k]. Parallelized over
// X's rows. This is the linear backward-data primitive: dx = dy·W.
func MatMulDenseCSRInto(dst, x *tensor.Tensor, a *CSR, accumulate bool) {
	bRows, m := dims2(x, "MatMulDenseCSR x")
	if m != a.Rows {
		panic(fmt.Sprintf("sparse: MatMulDenseCSR inner dims %d vs %d", m, a.Rows))
	}
	dm, dn := dims2(dst, "MatMulDenseCSR dst")
	if dm != bRows || dn != a.Cols {
		panic(fmt.Sprintf("sparse: MatMulDenseCSR dst shape [%d,%d], want [%d,%d]", dm, dn, bRows, a.Cols))
	}
	xd, od := x.Data, dst.Data
	rowWork := 2 * (1 + a.NNZ())
	tensor.ParallelFor(bRows, rowWork, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xrow := xd[i*m : (i+1)*m]
			orow := od[i*a.Cols : (i+1)*a.Cols]
			if !accumulate {
				for j := range orow {
					orow[j] = 0
				}
			}
			for r, v := range xrow {
				if v == 0 {
					continue
				}
				for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
					orow[a.ColIdx[p]] += v * a.Val[p]
				}
			}
		}
	})
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

// CSRGradATBInto accumulates vals[p] += Σ_i a[i,r]·b[i,c] for every stored
// position (r,c) of the pattern — the SDDMM form of dW = dyᵀ·x restricted to
// active positions (the linear layer's weight gradient). a is
// [batch, pattern.Rows], b is [batch, pattern.Cols]. Parallelized over
// pattern rows (vals is indexed by p, so writes never race).
func CSRGradATBInto(vals []float32, pattern *CSR, a, b *tensor.Tensor) {
	ab, m := dims2(a, "CSRGradATB a")
	bb, k := dims2(b, "CSRGradATB b")
	if ab != bb {
		panic(fmt.Sprintf("sparse: CSRGradATB batch dims %d vs %d", ab, bb))
	}
	if m != pattern.Rows || k != pattern.Cols {
		panic(fmt.Sprintf("sparse: CSRGradATB operands [%d,%d]/[%d,%d] vs pattern [%d,%d]", ab, m, bb, k, pattern.Rows, pattern.Cols))
	}
	if len(vals) != pattern.NNZ() {
		panic(fmt.Sprintf("sparse: CSRGradATB vals length %d, want %d", len(vals), pattern.NNZ()))
	}
	ad, bd := a.Data, b.Data
	rowWork := ab * (2 + pattern.NNZ()/max1(pattern.Rows))
	tensor.ParallelFor(pattern.Rows, rowWork, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			for p := pattern.RowPtr[r]; p < pattern.RowPtr[r+1]; p++ {
				c := int(pattern.ColIdx[p])
				var s float32
				for i := 0; i < ab; i++ {
					s += ad[i*m+r] * bd[i*k+c]
				}
				vals[p] += s
			}
		}
	})
}

// CSRGradATBTransposedInto computes exactly what CSRGradATBInto computes —
// vals[p] += Σ_i a[i,r]·b[i,c] at every stored position — but first
// transposes both operands into [rows, batch] scratch so the per-position dot
// product streams two contiguous rows instead of walking a and b
// column-strided. The O(batch·(m+k)) transpose is amortized over
// nnz(pattern) dot products of length batch, which wins on wide layers where
// the column stride defeats the cache; the summation order per position is
// unchanged (i ascending), so results are bit-identical to CSRGradATBInto.
// Parallelized over pattern rows.
func CSRGradATBTransposedInto(vals []float32, pattern *CSR, a, b *tensor.Tensor) {
	ab, m := dims2(a, "CSRGradATBTransposed a")
	bb, k := dims2(b, "CSRGradATBTransposed b")
	if ab != bb {
		panic(fmt.Sprintf("sparse: CSRGradATBTransposed batch dims %d vs %d", ab, bb))
	}
	if m != pattern.Rows || k != pattern.Cols {
		panic(fmt.Sprintf("sparse: CSRGradATBTransposed operands [%d,%d]/[%d,%d] vs pattern [%d,%d]", ab, m, bb, k, pattern.Rows, pattern.Cols))
	}
	if len(vals) != pattern.NNZ() {
		panic(fmt.Sprintf("sparse: CSRGradATBTransposed vals length %d, want %d", len(vals), pattern.NNZ()))
	}
	ad, bd := a.Data, b.Data
	aT := make([]float32, m*ab)
	for i := 0; i < ab; i++ {
		row := ad[i*m : (i+1)*m]
		for r, v := range row {
			aT[r*ab+i] = v
		}
	}
	bT := make([]float32, k*ab)
	for i := 0; i < ab; i++ {
		row := bd[i*k : (i+1)*k]
		for c, v := range row {
			bT[c*ab+i] = v
		}
	}
	rowWork := ab * (2 + pattern.NNZ()/max1(pattern.Rows))
	tensor.ParallelFor(pattern.Rows, rowWork, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			arow := aT[r*ab : (r+1)*ab]
			for p := pattern.RowPtr[r]; p < pattern.RowPtr[r+1]; p++ {
				brow := bT[int(pattern.ColIdx[p])*ab:]
				brow = brow[:ab]
				var s float32
				for i, av := range arow {
					s += av * brow[i]
				}
				vals[p] += s
			}
		}
	})
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

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
