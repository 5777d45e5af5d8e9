package tensor

import (
	"testing"

	"ndsnn/internal/rng"
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

func TestIm2ColEventsMatchesIm2Col(t *testing.T) {
	const c, h, w, k, stride, pad = 4, 6, 6, 3, 2, 1
	oh := ConvOutSize(h, k, stride, pad)
	ow := ConvOutSize(w, k, stride, pad)
	p := oh * ow
	ckk := c * k * k
	for _, rate := range []float64{0, 0.05, 0.5, 1} {
		r := rng.New(21 + uint64(rate*100))
		src := spikeInput(c, h, w, rate, r)
		want := make([]float32, ckk*p)
		Im2Col(want, src, c, h, w, k, k, stride, pad, oh, ow)
		got := make([]float32, len(want))
		rowPtr := make([]int32, ckk+1)
		colIdx, binary := Im2ColEvents(got, src, c, h, w, k, k, stride, pad, oh, ow, rowPtr, nil)
		if !binary {
			t.Fatalf("rate %v: binary input reported as non-binary", rate)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rate %v: dst[%d] = %v, want %v", rate, i, got[i], want[i])
			}
		}
		// The events must enumerate exactly the non-zero positions, grouped
		// by row in ascending column order.
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
					t.Fatalf("rate %v: event %d: got col %v, want (%d,%d)", rate, e, colIdx[e:], q, j)
				}
				e++
			}
		}
		if e != len(colIdx) || int(rowPtr[ckk]) != e {
			t.Fatalf("rate %v: %d events recorded, want %d (rowPtr end %d)", rate, len(colIdx), e, rowPtr[ckk])
		}
	}
}

// TestIm2ColPatternFromEventsMatchesIm2ColEvents pins the tape-replay
// pattern rebuild against the forward's extraction: for every geometry and
// rate, expanding the input-space event list must yield exactly the pattern
// Im2ColEvents records while filling the dense column matrix.
func TestIm2ColPatternFromEventsMatchesIm2ColEvents(t *testing.T) {
	geoms := []struct{ c, h, w, k, stride, pad int }{
		{3, 7, 7, 3, 1, 1},
		{2, 8, 8, 3, 2, 1},
		{4, 5, 6, 1, 1, 0},
		{1, 9, 9, 5, 2, 2},
		{2, 6, 6, 3, 3, 0},
	}
	for _, g := range geoms {
		for _, rate := range []float64{0, 0.1, 0.5, 1} {
			r := rng.New(91 + uint64(rate*100) + uint64(g.k*g.stride))
			src := spikeInput(g.c, g.h, g.w, rate, r)
			oh := ConvOutSize(g.h, g.k, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.k, g.stride, g.pad)
			ckk := g.c * g.k * g.k
			dst := make([]float32, ckk*oh*ow)
			wantPtr := make([]int32, ckk+1)
			wantIdx, binary := Im2ColEvents(dst, src, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, oh, ow, wantPtr, nil)
			if !binary {
				t.Fatal("binary input rejected")
			}
			// The input-space event list: ascending flat indices of non-zeros.
			var flat []int32
			for i, v := range src {
				if v != 0 {
					flat = append(flat, int32(i))
				}
			}
			gotPtr := make([]int32, ckk+1)
			gotIdx := Im2ColPatternFromEvents(flat, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, oh, ow, gotPtr, nil)
			for i, p := range wantPtr {
				if gotPtr[i] != p {
					t.Fatalf("%+v rate %v: rowPtr[%d] = %d, want %d", g, rate, i, gotPtr[i], p)
				}
			}
			if len(gotIdx) != len(wantIdx) {
				t.Fatalf("%+v rate %v: %d events, want %d", g, rate, len(gotIdx), len(wantIdx))
			}
			for i, j := range wantIdx {
				if gotIdx[i] != j {
					t.Fatalf("%+v rate %v: event %d = col %d, want %d", g, rate, i, gotIdx[i], j)
				}
			}
		}
	}
}

func TestIm2ColEventsRejectsNonBinary(t *testing.T) {
	const c, h, w, k = 2, 4, 4, 3
	oh := ConvOutSize(h, k, 1, 1)
	ow := ConvOutSize(w, k, 1, 1)
	r := rng.New(31)
	src := spikeInput(c, h, w, 0.3, r)
	src[5] = 0.5 // analog value: not a spike tensor
	dst := make([]float32, c*k*k*oh*ow)
	want := make([]float32, len(dst))
	Im2Col(want, src, c, h, w, k, k, 1, 1, oh, ow)
	rowPtr := make([]int32, c*k*k+1)
	_, binary := Im2ColEvents(dst, src, c, h, w, k, k, 1, 1, oh, ow, rowPtr, nil)
	if binary {
		t.Fatal("non-binary input reported as binary")
	}
	// The expansion itself must still be complete and correct.
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v after non-binary bail", i, dst[i], want[i])
		}
	}
}
