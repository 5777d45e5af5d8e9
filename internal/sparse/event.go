package sparse

import (
	"fmt"

	"ndsnn/internal/tensor"
)

// Event-driven kernels: the spike-sparsity half of the dual-sparse forward
// pass. The CSR kernels in gemm.go make training cost scale with live-weight
// density; the kernels here additionally skip the zeros of the *activation*
// operand, which for spiking networks is a {0,1} tensor that is mostly zero.
// Forward cost then scales with weightDensity × spikeRate instead of either
// alone.
//
// Binary inputs are represented as an Events pattern (a value-less CSR: per
// row, the ascending list of active columns). Because every stored entry is
// exactly 1, multiplication degenerates to accumulation of weight values, and
// every kernel visits contributions in the same ascending-index order as the
// dense kernels — outputs are bit-identical to the dense path.

// Events is the positions-only CSR pattern of a binary {0,1} matrix: row r's
// active columns are ColIdx[RowPtr[r]:RowPtr[r+1]], ascending. It is the
// compressed form of a spike raster (one row per im2col patch row or per
// batch sample) consumed by the event-driven kernels.
type Events struct {
	Rows, Cols int
	// RowPtr has Rows+1 entries delimiting each row's span in ColIdx.
	RowPtr []int32
	// ColIdx holds the active-column indices, grouped by row, ascending.
	ColIdx []int32
}

// NNZ returns the number of recorded events (active entries).
func (e *Events) NNZ() int { return len(e.ColIdx) }

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

// RowNNZ returns the number of active entries in row r.
func (e *Events) RowNNZ(r int) int { return int(e.RowPtr[r+1] - e.RowPtr[r]) }

// EncodeEvents extracts the event pattern of a 2-D binary tensor, the form
// the tape records spike inputs in. It returns ok=false (with a nil pattern)
// as soon as it sees a value outside {0,1}: the input is analog and the
// caller keeps it dense. The scan is O(rows·cols); a layer's im2col pattern
// is built from the spike positions instead (tensor.Im2ColPatternFromEvents).
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

// CSCMatMulEventsSerialInto computes dst = A·B for A in CSC form [m,k] and a
// binary B [k,n] given as its event pattern — the dual-sparse conv forward:
// sparse filters × sparse spike columns. The loop nest is inverted relative
// to the weight-only CSR kernel: spike rows are the outer loop, so each
// weight *column* (contiguous in CSC) is streamed exactly once per active
// spike row and the per-event overhead amortizes over the column's stored
// weights. Work is nnz(W) × spikeRate × n adds instead of the weight-only
// kernel's nnz(W) × n multiply-adds.
//
// For each fixed output element the contributions still arrive in ascending
// weight-column order (the outer loop), which is the dense kernel's
// summation order, so results are bit-identical to the dense path. Serial
// because the conv layers already parallelize across the batch.
func CSCMatMulEventsSerialInto(dst *tensor.Tensor, a *CSC, ev *Events, accumulate bool) {
	n := checkCSCMatMulEvents(dst, a, ev)
	od := dst.Data
	if !accumulate {
		for i := range od {
			od[i] = 0
		}
	}
	for q := 0; q < ev.Rows; q++ {
		evRow := ev.ColIdx[ev.RowPtr[q]:ev.RowPtr[q+1]]
		if len(evRow) == 0 {
			continue
		}
		for p := a.ColPtr[q]; p < a.ColPtr[q+1]; p++ {
			v := a.Val[p]
			if v == 0 {
				continue
			}
			orow := od[int(a.RowIdx[p])*n:]
			addEventsUnrolled(orow[:n], v, evRow)
		}
	}
}

// addEventsUnrolled accumulates orow[j] += v at every event column j — the
// register-blocked inner loop of CSCMatMulEventsSerialInto. Four
// (index, add) pairs are kept in flight per iteration, which removes most of
// the per-event loop and bounds-check overhead of the scalar form. Every
// event column is a distinct element and each receives exactly one add, in
// the same left-to-right order as the scalar loop, so results are
// bit-identical at any unroll factor.
func addEventsUnrolled(orow []float32, v float32, evRow []int32) {
	n := len(evRow) &^ 3
	for e := 0; e < n; e += 4 {
		j0, j1, j2, j3 := evRow[e], evRow[e+1], evRow[e+2], evRow[e+3]
		orow[j0] += v
		orow[j1] += v
		orow[j2] += v
		orow[j3] += v
	}
	for _, j := range evRow[n:] {
		orow[j] += v
	}
}

func checkCSCMatMulEvents(dst *tensor.Tensor, a *CSC, ev *Events) int {
	if ev.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: CSCMatMulEvents inner dims %d vs %d", a.Cols, ev.Rows))
	}
	dm, dn := dims2(dst, "CSCMatMulEvents dst")
	if dm != a.Rows || dn != ev.Cols {
		panic(fmt.Sprintf("sparse: CSCMatMulEvents dst shape [%d,%d], want [%d,%d]", dm, dn, a.Rows, ev.Cols))
	}
	return ev.Cols
}

// FuseTimesteps merges the event patterns of T same-shaped binary matrices
// (the T timesteps of one sample) into a single pattern over
// column-concatenated timesteps: row q of the result lists timestep t's
// active columns shifted by t·Cols, ascending. Feeding the fused pattern to
// CSCMatMulEventsSerialInto with an [A.Rows, T·Cols] destination computes
// all T forward passes in ONE traversal of the weight matrix — the
// batched-timestep GEMM: the pattern and values are shared across timesteps
// (only the spike columns differ), so every index/value load is amortized
// by T. Timestep t's output is dst[r, t·Cols : (t+1)·Cols], bit-identical
// to T per-timestep kernel calls. The merge itself is O(total events).
func FuseTimesteps(evs []*Events) *Events {
	if len(evs) == 0 {
		return &Events{}
	}
	rows, cols := evs[0].Rows, evs[0].Cols
	total := 0
	for _, ev := range evs {
		if ev.Rows != rows || ev.Cols != cols {
			panic(fmt.Sprintf("sparse: FuseTimesteps shape [%d,%d] vs [%d,%d]", ev.Rows, ev.Cols, rows, cols))
		}
		total += ev.NNZ()
	}
	f := &Events{
		Rows:   rows,
		Cols:   len(evs) * cols,
		RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, 0, total),
	}
	for q := 0; q < rows; q++ {
		for t, ev := range evs {
			off := int32(t * cols)
			for _, j := range ev.ColIdx[ev.RowPtr[q]:ev.RowPtr[q+1]] {
				f.ColIdx = append(f.ColIdx, off+j)
			}
		}
		f.RowPtr[q+1] = int32(len(f.ColIdx))
	}
	return f
}

// CSRGradABTEventsSerial is CSRGradABTSerial with the b operand given as the
// event pattern of a binary matrix — the tape-replay form of the conv weight
// gradient: vals[p] += Σ_j a[r,j]·b[c,j] degenerates to accumulating a[r,j]
// over b's recorded events, so backward-weight work scales with
// nnz(pattern) × spike occupancy instead of nnz(pattern) × q. Rows of the
// pattern with zero recorded spikes are skipped entirely. Contributions
// arrive in ascending-j order (the dense kernel's summation order, minus its
// exact-zero terms), so results match the dense path within float rounding.
// a is [pattern.Rows, q]; evB is [pattern.Cols, q]. Serial because the conv
// layer parallelizes across the batch.
func CSRGradABTEventsSerial(vals []float32, pattern *CSR, a *tensor.Tensor, evB *Events) {
	am, q := dims2(a, "CSRGradABTEvents a")
	if am != pattern.Rows {
		panic(fmt.Sprintf("sparse: CSRGradABTEvents a rows %d vs pattern rows %d", am, pattern.Rows))
	}
	if evB.Rows != pattern.Cols || evB.Cols != q {
		panic(fmt.Sprintf("sparse: CSRGradABTEvents events [%d,%d] vs pattern cols %d, q %d", evB.Rows, evB.Cols, pattern.Cols, q))
	}
	if len(vals) != pattern.NNZ() {
		panic(fmt.Sprintf("sparse: CSRGradABTEvents vals length %d, want %d", len(vals), pattern.NNZ()))
	}
	ad := a.Data
	for r := 0; r < pattern.Rows; r++ {
		arow := ad[r*q : (r+1)*q]
		for p := pattern.RowPtr[r]; p < pattern.RowPtr[r+1]; p++ {
			c := int(pattern.ColIdx[p])
			lo, hi := evB.RowPtr[c], evB.RowPtr[c+1]
			if lo == hi {
				continue
			}
			var s float32
			for _, j := range evB.ColIdx[lo:hi] {
				s += arow[j]
			}
			vals[p] += s
		}
	}
}

// CSC is a compressed-sparse-column view of a weight matrix: column q's
// stored rows are RowIdx[ColPtr[q]:ColPtr[q+1]], ascending, with values
// aligned in Val. It is the access order the event-driven forward needs
// (incoming spikes select weight *columns*), derived from the mask-keyed CSR
// pattern.
type CSC struct {
	Rows, Cols int
	// ColPtr has Cols+1 entries delimiting each column's span in RowIdx/Val.
	ColPtr []int32
	RowIdx []int32
	Val    []float32
}

// NewCSCFromCSR transposes a CSR pattern into CSC form (values copied). The
// two views share no storage; re-gather values with GatherValues after
// optimizer steps, and rebuild on mask changes alongside the CSR encoding.
func NewCSCFromCSR(c *CSR) *CSC {
	t := &CSC{
		Rows: c.Rows, Cols: c.Cols,
		ColPtr: make([]int32, c.Cols+1),
		RowIdx: make([]int32, c.NNZ()),
		Val:    make([]float32, c.NNZ()),
	}
	for _, j := range c.ColIdx {
		t.ColPtr[j+1]++
	}
	for q := 0; q < c.Cols; q++ {
		t.ColPtr[q+1] += t.ColPtr[q]
	}
	next := make([]int32, c.Cols)
	copy(next, t.ColPtr[:c.Cols])
	for r := 0; r < c.Rows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			q := c.ColIdx[p]
			t.RowIdx[next[q]] = int32(r)
			t.Val[next[q]] = c.Val[p]
			next[q]++
		}
	}
	return t
}

// NNZ returns the number of stored non-zeros.
func (c *CSC) NNZ() int { return len(c.Val) }

// GatherValues refreshes Val in place from a dense tensor with Rows·Cols
// elements, keeping the pattern fixed — the CSC counterpart of
// CSR.GatherValues, used between rewire events.
func (c *CSC) GatherValues(w *tensor.Tensor) {
	if w.Size() != c.Rows*c.Cols {
		panic("sparse: CSC.GatherValues size mismatch")
	}
	wd := w.Data
	for q := 0; q < c.Cols; q++ {
		for p := c.ColPtr[q]; p < c.ColPtr[q+1]; p++ {
			c.Val[p] = wd[int(c.RowIdx[p])*c.Cols+q]
		}
	}
}
