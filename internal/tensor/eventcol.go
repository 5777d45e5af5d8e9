package tensor

// Event-aware im2col for the dual-sparse forward path.
//
// SNN activations are binary spike tensors that are mostly zero, so the
// column matrix im2col produces is mostly zero too. Im2ColEvents expands the
// input exactly like Im2Col while recording every non-zero entry as a
// CSR-style (row → column list) pattern over the column matrix and
// verifying that the input is binary, which is what the fully event-driven
// kernels in internal/sparse consume. The bookkeeping is fused into the
// same loop that fills dst, so the extra cost is O(nnz) on top of the
// unavoidable O(C·KH·KW·OH·OW) fill.

// Im2ColPatternFromEvents computes the same CSR-style event pattern
// Im2ColEvents extracts — row r's active output columns, ascending — directly
// from the input-space non-zero pattern of one sample, without touching a
// dense column matrix at all. flat lists the sample's non-zero positions as
// ascending flat C·H·W indices (one row of the tape's recorded event
// pattern); rowPtr must have length C·KH·KW+1; colIdx is appended to and
// returned (pass colIdx[:0] to reuse its backing array).
//
// This is the tape-replay fast path: work is O(KH·KW·nnz) instead of the
// O(C·KH·KW·OH·OW) dense expansion, so rebuilding a timestep's pattern costs
// ~occupancy of what the forward paid. The output is identical to what
// Im2ColEvents would produce for the decoded tensor (pinned by test).
func Im2ColPatternFromEvents(flat []int32, c, h, w, kh, kw, stride, pad, oh, ow int, rowPtr []int32, colIdx []int32) []int32 {
	if len(rowPtr) != c*kh*kw+1 {
		panic("tensor: Im2ColPatternFromEvents rowPtr length mismatch")
	}
	rowPtr[0] = 0
	start := 0
	for ci := 0; ci < c; ci++ {
		chanBase := int32(ci * h * w)
		chanHi := chanBase + int32(h*w)
		end := start
		for end < len(flat) && flat[end] < chanHi {
			end++
		}
		spikes := flat[start:end]
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				r := (ci*kh+ki)*kw + kj
				// Spikes ascend in (iy,ix), so the emitted output columns
				// j = oy·OW+ox ascend too — the CSR invariant.
				for _, f := range spikes {
					rel := int(f - chanBase)
					iy := rel / w
					ix := rel - iy*w
					ty := iy + pad - ki
					tx := ix + pad - kj
					if ty < 0 || tx < 0 {
						continue
					}
					if stride != 1 && (ty%stride != 0 || tx%stride != 0) {
						continue
					}
					oy := ty / stride
					ox := tx / stride
					if oy < oh && ox < ow {
						colIdx = append(colIdx, int32(oy*ow+ox))
					}
				}
				rowPtr[r+1] = int32(len(colIdx))
			}
		}
		start = end
	}
	return colIdx
}

// Im2ColEvents is Im2Col plus event extraction: while filling dst it appends
// the column index of every non-zero entry to colIdx (row-major, so the
// result is grouped by row in ascending column order — exactly a CSR
// pattern) and records per-row extents in rowPtr, which must have length
// C·KH·KW+1. It also checks that every non-zero equals exactly 1.
//
// Returns the appended colIdx slice and whether the input was binary ({0,1}
// valued). When it returns binary=false the dst expansion is still complete
// and correct, but the event pattern is truncated and must be discarded —
// callers fall back to the dense or weight-only-CSR path.
//
// The caller owns the backing arrays, so a batch loop can reuse them across
// samples (pass colIdx[:0] to reset without reallocating).
func Im2ColEvents(dst, src []float32, c, h, w, kh, kw, stride, pad, oh, ow int, rowPtr []int32, colIdx []int32) ([]int32, bool) {
	if len(src) != c*h*w {
		panic("tensor: Im2ColEvents src length mismatch")
	}
	p := oh * ow
	if len(dst) != c*kh*kw*p {
		panic("tensor: Im2ColEvents dst length mismatch")
	}
	if len(rowPtr) != c*kh*kw+1 {
		panic("tensor: Im2ColEvents rowPtr length mismatch")
	}
	rowPtr[0] = 0
	binary := true
	for ci := 0; ci < c; ci++ {
		chanBase := ci * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				r := (ci*kh+ki)*kw + kj
				row := r * p
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ki - pad
					dstRow := dst[row+oy*ow : row+(oy+1)*ow]
					if iy < 0 || iy >= h {
						for ox := range dstRow {
							dstRow[ox] = 0
						}
						continue
					}
					srcRow := src[chanBase+iy*w : chanBase+(iy+1)*w]
					jBase := int32(oy * ow)
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kj - pad
						if ix < 0 || ix >= w {
							dstRow[ox] = 0
							continue
						}
						v := srcRow[ix]
						dstRow[ox] = v
						if v != 0 && binary {
							if v != 1 {
								binary = false
								continue
							}
							colIdx = append(colIdx, jBase+int32(ox))
						}
					}
				}
				rowPtr[r+1] = int32(len(colIdx))
			}
		}
	}
	return colIdx, binary
}
