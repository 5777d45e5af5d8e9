package tensor_test

import (
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// spikeInput builds a [c,h,w] binary sample with the given firing rate.
func spikeInput(c, h, w int, rate float64, r *rng.RNG) []float32 {
	src := make([]float32, c*h*w)
	for i := range src {
		if r.Float64() < rate {
			src[i] = 1
		}
	}
	return src
}

// spikePositions lists the ascending flat indices of a sample's non-zeros:
// the input-space event list Im2ColPatternFromEvents consumes.
func spikePositions(src []float32) []int32 {
	var flat []int32
	for i, v := range src {
		if v != 0 {
			flat = append(flat, int32(i))
		}
	}
	return flat
}

// TestIm2ColEventsMatchesIm2Col pins the im2col events built from the spike
// positions against the dense expansion on a strided, padded layer: they
// must enumerate exactly the non-zero entries of Im2Col's column matrix,
// grouped by row in ascending column order.
func TestIm2ColEventsMatchesIm2Col(t *testing.T) {
	const c, h, w, k, stride, pad = 4, 6, 6, 3, 2, 1
	oh := tensor.ConvOutSize(h, k, stride, pad)
	ow := tensor.ConvOutSize(w, k, stride, pad)
	p := oh * ow
	ckk := c * k * k
	for _, rate := range []float64{0, 0.05, 0.1, 0.5, 1} {
		r := rng.New(21 + uint64(rate*100))
		src := spikeInput(c, h, w, rate, r)
		want := make([]float32, ckk*p)
		tensor.Im2Col(want, src, c, h, w, k, k, stride, pad, oh, ow)
		rowPtr := make([]int32, ckk+1)
		colIdx := tensor.Im2ColPatternFromEvents(spikePositions(src), c, h, w, k, k, stride, pad, oh, ow, rowPtr, nil)
		e := 0
		for q := 0; q < ckk; q++ {
			if int(rowPtr[q]) != e {
				t.Fatalf("rate %v: rowPtr[%d] = %d, want %d", rate, q, rowPtr[q], e)
			}
			for j := 0; j < p; j++ {
				if want[q*p+j] == 0 {
					continue
				}
				if e >= len(colIdx) || int(colIdx[e]) != j {
					t.Fatalf("rate %v: event %d: got cols %v, want (%d,%d)", rate, e, colIdx[e:], q, j)
				}
				e++
			}
		}
		if e != len(colIdx) || int(rowPtr[ckk]) != e {
			t.Fatalf("rate %v: %d events recorded, want %d (rowPtr end %d)", rate, len(colIdx), e, rowPtr[ckk])
		}
	}
}

// TestIm2ColPatternFromEventsMatchesIm2ColEvents pins the pattern built from
// the spike positions against the event pattern sparse.EncodeEvents extracts
// from the materialized Im2Col matrix, for every geometry and rate: the
// fused event kernels must see the same operand either way.
func TestIm2ColPatternFromEventsMatchesIm2ColEvents(t *testing.T) {
	geoms := []struct{ c, h, w, k, stride, pad int }{
		{3, 7, 7, 3, 1, 1},
		{2, 8, 8, 3, 2, 1},
		{4, 5, 6, 1, 1, 0},
		{1, 9, 9, 5, 2, 2},
		{2, 6, 6, 3, 3, 0},
	}
	for _, g := range geoms {
		for _, rate := range []float64{0, 0.05, 0.1, 0.5, 1} {
			r := rng.New(91 + uint64(rate*100) + uint64(g.k*g.stride))
			src := spikeInput(g.c, g.h, g.w, rate, r)
			oh := tensor.ConvOutSize(g.h, g.k, g.stride, g.pad)
			ow := tensor.ConvOutSize(g.w, g.k, g.stride, g.pad)
			ckk := g.c * g.k * g.k
			cols := tensor.New(ckk, oh*ow)
			tensor.Im2Col(cols.Data, src, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, oh, ow)
			want, binary := sparse.EncodeEvents(cols)
			if !binary {
				t.Fatalf("%+v rate %v: binary input expanded to a non-binary column matrix", g, rate)
			}
			gotPtr := make([]int32, ckk+1)
			gotIdx := tensor.Im2ColPatternFromEvents(spikePositions(src), g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, oh, ow, gotPtr, nil)
			for i, p := range want.RowPtr {
				if gotPtr[i] != p {
					t.Fatalf("%+v rate %v: rowPtr[%d] = %d, want %d", g, rate, i, gotPtr[i], p)
				}
			}
			if len(gotIdx) != len(want.ColIdx) {
				t.Fatalf("%+v rate %v: %d events, want %d", g, rate, len(gotIdx), len(want.ColIdx))
			}
			for i, j := range want.ColIdx {
				if gotIdx[i] != j {
					t.Fatalf("%+v rate %v: event %d = col %d, want %d", g, rate, i, gotIdx[i], j)
				}
			}
		}
	}
}
