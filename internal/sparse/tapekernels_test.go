package sparse

import (
	"math"
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

// Tests for the tape-replay kernels: the gradient walk over recorded spike
// lists, pinned against the dense-operand SDDMM it replaces, and the Events
// row round trip.

// TestCSRGradABTEventsMatchesDense pins the gradient walk
// (ConvTable.ScatterGrad) bit for bit against CSRGradABTSerial over the
// dense im2col of the decoded spikes, as the fused replay sums it: two
// timesteps walked in order into one CSR-ordered partial against one SDDMM
// over the column-concatenated timesteps. The geometries cover strides 1, 2
// and 3, 1×1 and 5×5 kernels and h ≠ w; the rates no spikes and every
// position firing; and every table has a live weight of exactly zero, which
// keeps its slot because the table is keyed on the mask.
func TestCSRGradABTEventsMatchesDense(t *testing.T) {
	const T = 2
	geoms := []convGeom{
		{inC: 3, outC: 5, k: 3, stride: 1, pad: 1, h: 6, w: 6},
		{inC: 4, outC: 3, k: 3, stride: 2, pad: 1, h: 7, w: 5},
		{inC: 2, outC: 4, k: 3, stride: 3, pad: 0, h: 9, w: 8},
		{inC: 5, outC: 4, k: 1, stride: 1, pad: 0, h: 4, w: 4},
		{inC: 3, outC: 2, k: 1, stride: 2, pad: 0, h: 5, w: 7},
		{inC: 2, outC: 3, k: 5, stride: 2, pad: 2, h: 6, w: 9},
	}
	for gi, g := range geoms {
		for _, rate := range []float64{0, 0.3, 1} {
			r := rng.New(301 + uint64(10*gi) + uint64(rate*100))
			oh, ow := g.outSize()
			p := oh * ow
			ckk := g.inC * g.k * g.k
			w := tensor.New(g.outC, ckk)
			mask := tensor.New(g.outC, ckk)
			for i := range w.Data {
				if r.Float64() < 0.5 {
					mask.Data[i] = 1
					w.Data[i] = r.NormFloat32()
				}
			}
			mask.Data[0], w.Data[0] = 1, 0
			pattern := EncodeCSRWithMask(w, mask)
			table := NewConvTable(w.Data, mask.Data, g.outC, g.inC, g.k, g.stride, g.pad)

			dyCat := tensor.New(g.outC, T*p)
			colCat := tensor.New(ckk, T*p)
			got := make([]float32, pattern.NNZ())
			for tt := 0; tt < T; tt++ {
				var evs []Event
				for i := 0; i < g.inC*g.h*g.w; i++ {
					if r.Float64() < rate {
						evs = append(evs, Event{Idx: int32(i), Val: 1})
					}
				}
				spikes, _ := spikesOf(evs)
				col := g.im2col(evs)
				dy := make([]float32, g.outC*p)
				for i := range dy {
					dy[i] = r.NormFloat32()
				}
				table.ScatterGrad(got, spikes, dy, g.h, g.w, oh, ow)
				for f := 0; f < g.outC; f++ {
					copy(dyCat.Data[f*T*p+tt*p:], dy[f*p:(f+1)*p])
				}
				for c := 0; c < ckk; c++ {
					copy(colCat.Data[c*T*p+tt*p:], col.Data[c*p:(c+1)*p])
				}
			}
			want := make([]float32, pattern.NNZ())
			CSRGradABTSerial(want, pattern, dyCat, colCat)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("geom %d (k=%d stride=%d %dx%d) rate %v: vals[%d] = %v, SDDMM %v",
						gi, g.k, g.stride, g.h, g.w, rate, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEventsScatterRowRoundTrip(t *testing.T) {
	r := rng.New(331)
	x := spikeMatrix(6, 17, 0.3, r)
	ev, ok := EncodeEvents(x)
	if !ok {
		t.Fatal("binary tensor rejected")
	}
	buf := make([]float32, 17)
	for row := 0; row < 6; row++ {
		ev.ScatterRowInto(row, buf, 1)
		for j := 0; j < 17; j++ {
			if buf[j] != x.Data[row*17+j] {
				t.Fatalf("row %d col %d: decoded %v, want %v", row, j, buf[j], x.Data[row*17+j])
			}
		}
		// Scatter-zero erases exactly what was written, leaving the buffer
		// reusable without a full memset.
		ev.ScatterRowInto(row, buf, 0)
		for j, v := range buf {
			if v != 0 {
				t.Fatalf("row %d: buffer not cleared at %d (%v)", row, j, v)
			}
		}
	}
}
