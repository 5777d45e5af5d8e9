package sparse

import "fmt"

// Integer event kernels: the deployed-arithmetic half of the event-driven
// story. The float kernels in event.go make inference work scale with
// weightDensity × spikeRate; the kernels here additionally compute in the
// integer precision the Sec. III-D platforms actually ship (Loihi 8-bit,
// HICANN 4-bit) — per incoming spike, one signed-integer column accumulate
// into an int32 accumulator, mirroring CSCMatMulEventsSerialInto with the
// multiply dropped entirely (binary events × integer levels = adds). The
// accumulator only returns to float at the layer boundary, where a single
// per-channel requantization scale applies (see internal/quant.QCSR).
//
// The primary accumulates are register-blocked: four (row index, level)
// pairs are kept in flight per iteration, which strips most of the per-entry
// loop and bounds-check overhead that made the scalar forms run at float
// speed. Integer accumulation is exact at any order, and the unrolled loops
// apply the same adds sequentially, so results are identical to the
// one-add-per-synapse scalar references the tests pin them against.

// CSCInt8 is a column-compressed weight matrix quantized to signed 8-bit
// levels: column q's stored rows are RowIdx[ColPtr[q]:ColPtr[q+1]],
// ascending, with levels aligned in Q. Values are levels, not weights —
// dequantize with the owning QCSR's per-row scale.
type CSCInt8 struct {
	Rows, Cols int
	// ColPtr has Cols+1 entries delimiting each column's span in RowIdx/Q.
	ColPtr []int32
	RowIdx []int32
	// Q holds the signed 8-bit quantized levels.
	Q []int8
}

// NNZ returns the number of stored synapses.
func (c *CSCInt8) NNZ() int { return len(c.RowIdx) }

// CSCAccumulateColumnsInt8 is the int8 event kernel: for every event column
// q in cols (the flat indices of one timestep's incoming spikes), it
// accumulates weight column q into the int32 accumulator —
// acc[RowIdx[p]] += Q[p] for each stored synapse p of the column — with the
// register-blocked 4×-unrolled inner loop. Integer accumulation is exact, so
// the result is identical to a scalar one-add-per-synapse walk. It returns
// the number of accumulates performed (the SynOps of the call).
func CSCAccumulateColumnsInt8(acc []int32, a *CSCInt8, cols []int32) int64 {
	if len(acc) != a.Rows {
		panic(fmt.Sprintf("sparse: CSCAccumulateColumnsInt8 acc length %d, want %d", len(acc), a.Rows))
	}
	var ops int64
	for _, q := range cols {
		lo, hi := a.ColPtr[q], a.ColPtr[q+1]
		idx := a.RowIdx[lo:hi]
		lev := a.Q[lo:hi:hi]
		ops += int64(len(idx))
		n := len(idx) &^ 3
		for p := 0; p < n; p += 4 {
			i0, i1, i2, i3 := idx[p], idx[p+1], idx[p+2], idx[p+3]
			q0, q1, q2, q3 := lev[p], lev[p+1], lev[p+2], lev[p+3]
			acc[i0] += int32(q0)
			acc[i1] += int32(q1)
			acc[i2] += int32(q2)
			acc[i3] += int32(q3)
		}
		for p := n; p < len(idx); p++ {
			acc[idx[p]] += int32(lev[p])
		}
	}
	return ops
}

// addEventsUnrolledInt32 is addEventsUnrolled for the int32 accumulators of
// the integer event matmuls: orow[j] += v at every event column j, four
// indexed adds in flight per iteration. Exact (integer) at any order.
func addEventsUnrolledInt32(orow []int32, v int32, evRow []int32) {
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

// CSCMatMulEventsInt8SerialInto computes dst = A·B for A in int8 CSC form
// [m,k] and a binary B [k,n] given as its event pattern — the integer twin
// of CSCMatMulEventsSerialInto, with dst an int32 accumulator laid out
// row-major [m,n]. Multiplication by {0,1} spikes degenerates to integer
// accumulation of levels, which is exact at any summation order; the inner
// event loop is register-blocked like the float kernel's.
func CSCMatMulEventsInt8SerialInto(dst []int32, a *CSCInt8, ev *Events, accumulate bool) {
	n := checkCSCMatMulEventsInt(len(dst), a.Rows, a.Cols, ev)
	if !accumulate {
		for i := range dst {
			dst[i] = 0
		}
	}
	for q := 0; q < ev.Rows; q++ {
		evRow := ev.ColIdx[ev.RowPtr[q]:ev.RowPtr[q+1]]
		if len(evRow) == 0 {
			continue
		}
		for p := a.ColPtr[q]; p < a.ColPtr[q+1]; p++ {
			v := int32(a.Q[p])
			orow := dst[int(a.RowIdx[p])*n:]
			addEventsUnrolledInt32(orow[:n], v, evRow)
		}
	}
}

// CSCInt4 is CSCInt8 with the levels packed two per byte (low nibble =
// even entry, high nibble = odd entry, sign-extended on read) — the HICANN
// 4-bit deployment layout. The kernels unpack nibbles inline, so packed
// storage is also what is computed from.
type CSCInt4 struct {
	Rows, Cols int
	// ColPtr has Cols+1 entries delimiting each column's span in RowIdx.
	ColPtr []int32
	RowIdx []int32
	// Packed holds ⌈nnz/2⌉ bytes of two-per-byte signed 4-bit levels.
	Packed []byte
}

// NNZ returns the number of stored synapses.
func (c *CSCInt4) NNZ() int { return len(c.RowIdx) }

// Level returns the sign-extended 4-bit level of stored entry p.
func (c *CSCInt4) Level(p int32) int32 {
	b := c.Packed[p>>1]
	if p&1 == 0 {
		return int32(int8(b<<4) >> 4)
	}
	return int32(int8(b) >> 4)
}

// CSCAccumulateColumnsInt4 is CSCAccumulateColumnsInt8 over the packed
// 4-bit layout: per event column, each stored byte is split into its two
// sign-extended nibbles and both land in the int32 accumulator in one
// iteration — the packed layout's natural 2×-register-blocked walk (columns
// start on an entry boundary only when the column offset is even, so the
// kernel peels a leading odd nibble first). Identical result to a scalar
// one-Level-decode-per-synapse walk. Returns the accumulate count.
func CSCAccumulateColumnsInt4(acc []int32, a *CSCInt4, cols []int32) int64 {
	if len(acc) != a.Rows {
		panic(fmt.Sprintf("sparse: CSCAccumulateColumnsInt4 acc length %d, want %d", len(acc), a.Rows))
	}
	var ops int64
	for _, q := range cols {
		lo, hi := a.ColPtr[q], a.ColPtr[q+1]
		ops += int64(hi - lo)
		p := lo
		if p < hi && p&1 == 1 { // leading odd nibble: high half of its byte
			acc[a.RowIdx[p]] += int32(int8(a.Packed[p>>1]) >> 4)
			p++
		}
		for ; p+1 < hi; p += 2 {
			b := a.Packed[p>>1]
			i0, i1 := a.RowIdx[p], a.RowIdx[p+1]
			acc[i0] += int32(int8(b<<4) >> 4)
			acc[i1] += int32(int8(b) >> 4)
		}
		if p < hi { // trailing even nibble: low half of its byte
			acc[a.RowIdx[p]] += int32(int8(a.Packed[p>>1]<<4) >> 4)
		}
	}
	return ops
}

// CSCMatMulEventsInt4SerialInto is CSCMatMulEventsInt8SerialInto over the
// packed 4-bit layout, with the same register-blocked event loop.
func CSCMatMulEventsInt4SerialInto(dst []int32, a *CSCInt4, ev *Events, accumulate bool) {
	n := checkCSCMatMulEventsInt(len(dst), a.Rows, a.Cols, ev)
	if !accumulate {
		for i := range dst {
			dst[i] = 0
		}
	}
	for q := 0; q < ev.Rows; q++ {
		evRow := ev.ColIdx[ev.RowPtr[q]:ev.RowPtr[q+1]]
		if len(evRow) == 0 {
			continue
		}
		for p := a.ColPtr[q]; p < a.ColPtr[q+1]; p++ {
			v := a.Level(p)
			orow := dst[int(a.RowIdx[p])*n:]
			addEventsUnrolledInt32(orow[:n], v, evRow)
		}
	}
}

func checkCSCMatMulEventsInt(dstLen, rows, cols int, ev *Events) int {
	if ev.Rows != cols {
		panic(fmt.Sprintf("sparse: CSCMatMulEventsInt inner dims %d vs %d", cols, ev.Rows))
	}
	if dstLen != rows*ev.Cols {
		panic(fmt.Sprintf("sparse: CSCMatMulEventsInt dst length %d, want %d", dstLen, rows*ev.Cols))
	}
	return ev.Cols
}
