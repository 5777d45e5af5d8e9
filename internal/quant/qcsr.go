package quant

import (
	"fmt"
	"math"

	"ndsnn/internal/sparse"
)

// QCSR is a sparse weight matrix quantized to signed integer levels — the
// packed deployment form of the Sec. III-D platforms (Loihi 8-bit synapses,
// HICANN 4-bit, SyncNN-style FPGA designs up to 16-bit). The sparsity
// pattern is *shared* with the float CSR it was quantized from (RowPtr and
// ColIdx alias the source arrays — one row per output channel/filter, the
// same [F, C·Kh·Kw] reshape as layers.Param's cached encoding); only the
// value storage changes, to one integer level per stored synapse (Levels).
// The deployed value size is computed from Bits (PackedValueBytes): two
// levels per byte at 4 bits, one byte up to 8 bits, two bytes above.
//
// Scales are powers of two (Po2Scale), per output channel by default, so
// dequantization level·scale is exact in float32 and hardware requantizes
// with a shift instead of a multiplier. value = level × scale(row).
type QCSR struct {
	Rows, Cols int
	// Bits is the signed level width: levels span [-(2^(Bits-1)-1), 2^(Bits-1)-1].
	Bits int
	// PerChannel records whether Scales holds one scale per row (true) or a
	// single per-tensor scale (false).
	PerChannel bool
	// RowPtr/ColIdx alias the source CSR's index arrays (shared pattern).
	RowPtr []int32
	ColIdx []int32
	// Levels holds one quantized level per stored synapse, aligned with
	// ColIdx.
	Levels []int16
	// Scales has Rows entries (PerChannel) or one (per-tensor), every entry a
	// power of two or zero (all-zero row).
	Scales []float32
}

// Po2Scale returns the smallest power of two ≥ maxAbs/levels for a signed
// bits-wide grid — the quantization step such that round(v/scale) never
// exceeds ±levels and requantization is a bit shift. Zero maxAbs yields a
// zero scale (the all-zero row quantizes to all-zero levels).
func Po2Scale(maxAbs float32, bits int) float32 {
	if maxAbs == 0 {
		return 0
	}
	levels := float64(int32(1)<<(bits-1) - 1)
	frac, exp := math.Frexp(float64(maxAbs) / levels)
	if frac == 0.5 {
		exp--
	}
	return float32(math.Ldexp(1, exp))
}

// QuantizeCSR quantizes a float CSR onto the bits-wide power-of-two grid,
// sharing the source's index arrays. With perChannel each row (output
// channel) gets its own scale from its max absolute value — the standard
// deployment choice, and what the BN-fold requantization multiplier
// composes with; otherwise one per-tensor scale covers the whole matrix.
func QuantizeCSR(c *sparse.CSR, bits int, perChannel bool) (*QCSR, error) {
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("quant: unsupported bit width %d", bits)
	}
	q := &QCSR{
		Rows: c.Rows, Cols: c.Cols, Bits: bits, PerChannel: perChannel,
		RowPtr: c.RowPtr, ColIdx: c.ColIdx,
	}
	if perChannel {
		q.Scales = make([]float32, c.Rows)
		for r := 0; r < c.Rows; r++ {
			q.Scales[r] = Po2Scale(maxAbsRange(c.Val[c.RowPtr[r]:c.RowPtr[r+1]]), bits)
		}
	} else {
		q.Scales = []float32{Po2Scale(maxAbsRange(c.Val), bits)}
	}
	levels := int32(1)<<(bits-1) - 1
	quantize := func(r int, v float32) int32 {
		s := q.RowScale(r)
		if s == 0 {
			return 0
		}
		l := int32(math.Round(float64(v / s)))
		if l > levels {
			l = levels
		}
		if l < -levels {
			l = -levels
		}
		return l
	}
	q.Levels = make([]int16, c.NNZ())
	for r := 0; r < c.Rows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			q.Levels[p] = int16(quantize(r, c.Val[p]))
		}
	}
	return q, nil
}

func maxAbsRange(vals []float32) float32 {
	m := float32(0)
	for _, v := range vals {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// NNZ returns the number of stored synapses.
func (q *QCSR) NNZ() int { return len(q.ColIdx) }

// Level returns the quantized integer level of stored entry p.
func (q *QCSR) Level(p int) int32 { return int32(q.Levels[p]) }

// RowScale returns the dequantization scale for row r (the per-tensor scale
// when PerChannel is false).
func (q *QCSR) RowScale(r int) float32 {
	if q.PerChannel {
		return q.Scales[r]
	}
	return q.Scales[0]
}

// Dequantize reconstructs the float CSR (level × scale per entry), sharing
// the index arrays. Because scales are powers of two the reconstruction is
// exact in float32: it is the reference grid the integer engine's outputs
// are pinned against.
func (q *QCSR) Dequantize() *sparse.CSR {
	c := &sparse.CSR{
		Rows: q.Rows, Cols: q.Cols,
		RowPtr: q.RowPtr, ColIdx: q.ColIdx,
		Val: make([]float32, q.NNZ()),
	}
	for r := 0; r < q.Rows; r++ {
		s := q.RowScale(r)
		for p := q.RowPtr[r]; p < q.RowPtr[r+1]; p++ {
			c.Val[p] = float32(q.Level(int(p))) * s
		}
	}
	return c
}

// PackedValueBytes returns the deployed byte count of the value storage
// alone, computed from Bits: ⌈nnz/2⌉ at 4 bits (two per byte), nnz at the
// other widths up to 8 bits, 2·nnz at 9–16 bits. Indices and scales are
// accounted separately (MemoryBits) because the float engine pays them
// identically.
func (q *QCSR) PackedValueBytes() int64 {
	n := int64(q.NNZ())
	switch {
	case q.Bits == 4:
		return (n + 1) / 2
	case q.Bits <= 8:
		return n
	default:
		return 2 * n
	}
}

// MemoryBits returns the full deployed storage cost with idxBits-wide
// indices: packed values + column indices + row pointers + the float32
// scales. It is the quantized counterpart of sparse.CSR.MemoryBits.
func (q *QCSR) MemoryBits(idxBits int) int64 {
	return 8*q.PackedValueBytes() +
		int64(q.NNZ())*int64(idxBits) +
		int64(q.Rows+1)*int64(idxBits) +
		int64(len(q.Scales))*32
}
