package tensor

// Event-aware im2col for the dual-sparse training path.
//
// SNN activations are binary spike tensors that are mostly zero, so the
// column matrix im2col produces is mostly zero too. The event-driven kernels
// in internal/sparse consume only its non-zero pattern, which can be built
// from the spike positions alone.

// Im2ColPatternFromEvents computes the CSR-style event pattern of the im2col
// column matrix — row r's active output columns, ascending — directly from
// the input-space non-zero pattern of one sample, without touching a dense
// column matrix at all. flat lists the sample's non-zero positions as
// ascending flat C·H·W indices (a binary input's spike positions, or one row
// of the tape's recorded event pattern); rowPtr must have length
// C·KH·KW+1; colIdx is appended to and returned (pass colIdx[:0] to reuse
// its backing array).
//
// Work is O(KH·KW·nnz) instead of the O(C·KH·KW·OH·OW) dense expansion, so
// building a timestep's pattern costs ~occupancy of what im2col pays. The
// pattern lists exactly the non-zero entries Im2Col writes for the decoded
// tensor (pinned by test).
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
