package sparse

import "ndsnn/internal/tensor"

// CSR is a compressed-sparse-row matrix, the storage format the paper's
// memory-footprint analysis assumes for deployed sparse weights. A 4-D conv
// weight [F,C,Kh,Kw] is stored as its [F, C·Kh·Kw] reshape, one row per
// filter.
type CSR struct {
	Rows, Cols int
	// RowPtr has Rows+1 entries; row r's nonzeros live at [RowPtr[r],
	// RowPtr[r+1]) in ColIdx/Val.
	RowPtr []int32
	ColIdx []int32
	Val    []float32
}

// EncodeCSR converts a 2-D tensor to CSR, keeping exact non-zeros. Note that
// this drops active-but-exactly-zero weights (e.g. freshly grown connections);
// use EncodeCSRWithMask when the mask topology must survive the encoding.
func EncodeCSR(w *tensor.Tensor) *CSR {
	if w.NumDims() != 2 {
		panic("sparse: EncodeCSR requires a 2-D tensor (reshape conv weights first)")
	}
	rows, cols := w.Dim(0), w.Dim(1)
	c := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			v := w.Data[r*cols+j]
			if v != 0 {
				c.ColIdx = append(c.ColIdx, int32(j))
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[r+1] = int32(len(c.Val))
	}
	return c
}

// EncodeCSRWithMask converts a 2-D tensor to CSR keyed on a 0/1 mask of the
// same shape: every mask=1 position is stored, including positions whose
// value is exactly zero (drop-and-grow regrows connections at zero, and they
// must stay addressable so later weight updates land in the encoding). The
// resulting sparsity pattern equals the mask topology exactly.
func EncodeCSRWithMask(w, mask *tensor.Tensor) *CSR {
	if w.NumDims() != 2 || mask.NumDims() != 2 {
		panic("sparse: EncodeCSRWithMask requires 2-D tensors (reshape conv weights first)")
	}
	rows, cols := w.Dim(0), w.Dim(1)
	if mask.Dim(0) != rows || mask.Dim(1) != cols {
		panic("sparse: EncodeCSRWithMask mask shape mismatch")
	}
	c := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			if mask.Data[r*cols+j] != 0 {
				c.ColIdx = append(c.ColIdx, int32(j))
				c.Val = append(c.Val, w.Data[r*cols+j])
			}
		}
		c.RowPtr[r+1] = int32(len(c.Val))
	}
	return c
}

// GatherValues refreshes Val in place from a dense tensor with Rows·Cols
// elements, keeping the sparsity pattern fixed. This is the cheap O(nnz)
// re-encode used between rewire events, when optimizer steps change weight
// values but not the mask topology.
func (c *CSR) GatherValues(w *tensor.Tensor) {
	if w.Size() != c.Rows*c.Cols {
		panic("sparse: GatherValues size mismatch")
	}
	wd := w.Data
	for r := 0; r < c.Rows; r++ {
		base := r * c.Cols
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			c.Val[p] = wd[base+int(c.ColIdx[p])]
		}
	}
}

// Decode reconstructs the dense 2-D tensor.
func (c *CSR) Decode() *tensor.Tensor {
	out := tensor.New(c.Rows, c.Cols)
	for r := 0; r < c.Rows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			out.Data[r*c.Cols+int(c.ColIdx[p])] = c.Val[p]
		}
	}
	return out
}

// NNZ returns the number of stored non-zeros.
func (c *CSR) NNZ() int { return len(c.Val) }

// MemoryBits returns the storage cost with weightBits-per-value and
// idxBits-per-index (column indices plus the Rows+1 row pointers), matching
// the paper's accounting of (1-θ)·N·(b_w + b_idx) + (F+1)·b_idx per layer.
func (c *CSR) MemoryBits(weightBits, idxBits int) int64 {
	return int64(c.NNZ())*int64(weightBits+idxBits) + int64(c.Rows+1)*int64(idxBits)
}
