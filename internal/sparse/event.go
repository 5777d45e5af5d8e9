package sparse

import "ndsnn/internal/tensor"

// Events is the positions-only CSR pattern of a binary {0,1} matrix: row r's
// active columns are ColIdx[RowPtr[r]:RowPtr[r+1]], ascending. It is how the
// tape records a spike input, one row per batch sample; a row is the
// sample's spike list, which the gradient walk (ConvTable.ScatterGrad)
// reads directly.
type Events struct {
	Rows, Cols int
	// RowPtr has Rows+1 entries delimiting each row's span in ColIdx.
	RowPtr []int32
	// ColIdx holds the active-column indices, grouped by row, ascending.
	ColIdx []int32
}

// ScatterRowInto sets dst[j] = v at every active column j of row r, leaving
// other entries untouched. With v=1 over a zeroed buffer it decodes one row
// of the binary matrix; calling again with v=0 erases exactly what was
// written, which is how tape replay reuses one scratch row across a batch in
// O(nnz) instead of re-zeroing the whole buffer.
func (e *Events) ScatterRowInto(r int, dst []float32, v float32) {
	for _, j := range e.ColIdx[e.RowPtr[r]:e.RowPtr[r+1]] {
		dst[j] = v
	}
}

// EncodeEvents extracts the event pattern of a 2-D binary tensor, the form
// the tape records spike inputs in. It returns ok=false (with a nil pattern)
// as soon as it sees a value outside {0,1}: the input is analog and the
// caller keeps it dense. The scan is O(rows·cols).
func EncodeEvents(t *tensor.Tensor) (*Events, bool) {
	rows, cols := dims2(t, "EncodeEvents")
	e := &Events{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		for j, v := range row {
			if v == 0 {
				continue
			}
			if v != 1 {
				return nil, false
			}
			e.ColIdx = append(e.ColIdx, int32(j))
		}
		e.RowPtr[r+1] = int32(len(e.ColIdx))
	}
	return e, true
}
