package sparse

import (
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

// spikeMatrix builds a [rows,cols] binary tensor with the given firing rate.
// rate 0 and 1 exercise the all-zero and all-ones edge cases.
func spikeMatrix(rows, cols int, rate float64, r *rng.RNG) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for i := range t.Data {
		if r.Float64() < rate {
			t.Data[i] = 1
		}
	}
	return t
}

// maskedWeights builds a [rows,cols] weight matrix and mask at the given
// density, plus its mask-keyed CSR encoding.
func maskedWeights(rows, cols int, density float64, r *rng.RNG) (*tensor.Tensor, *CSR) {
	w := tensor.New(rows, cols)
	mask := tensor.New(rows, cols)
	for i := range w.Data {
		if r.Float64() < density {
			mask.Data[i] = 1
			w.Data[i] = r.NormFloat32()
		}
	}
	return w, EncodeCSRWithMask(w, mask)
}

// maxAbsDiffT adapts gemm_test.go's maxAbsDiff to tensors.
func maxAbsDiffT(a, b *tensor.Tensor) float64 { return maxAbsDiff(a.Data, b.Data) }

var spikeRates = []float64{0, 0.05, 0.5, 1.0}

func TestEncodeEvents(t *testing.T) {
	r := rng.New(41)
	for _, rate := range spikeRates {
		b := spikeMatrix(9, 13, rate, r)
		ev, ok := EncodeEvents(b)
		if !ok {
			t.Fatalf("rate %v: binary tensor rejected", rate)
		}
		dec := tensor.New(9, 13)
		for row := 0; row < ev.Rows; row++ {
			for e := ev.RowPtr[row]; e < ev.RowPtr[row+1]; e++ {
				dec.Data[row*ev.Cols+int(ev.ColIdx[e])] = 1
			}
		}
		if d := maxAbsDiffT(b, dec); d != 0 {
			t.Fatalf("rate %v: decoded events differ by %v", rate, d)
		}
		wantOcc := float64(ev.NNZ()) / float64(9*13)
		if ev.Occupancy() != wantOcc {
			t.Fatalf("rate %v: occupancy %v, want %v", rate, ev.Occupancy(), wantOcc)
		}
	}
	analog := spikeMatrix(4, 4, 0.5, r)
	analog.Data[3] = 0.25
	if _, ok := EncodeEvents(analog); ok {
		t.Fatal("analog tensor accepted as binary")
	}
}

// TestCSCMatMulEventsMatchesDense is the kernel-level half of the
// event-driven ≡ dense property: A·B via the dual-sparse kernel must be
// bit-identical to the dense product across spike rates including the
// all-zero and all-ones edge cases.
func TestCSCMatMulEventsMatchesDense(t *testing.T) {
	const m, k, n = 12, 40, 18
	for _, rate := range spikeRates {
		for _, density := range []float64{0.08, 0.35, 1} {
			r := rng.New(51 + uint64(rate*100) + uint64(density*10))
			w, c := maskedWeights(m, k, density, r)
			csc := NewCSCFromCSR(c)
			b := spikeMatrix(k, n, rate, r)
			ev, ok := EncodeEvents(b)
			if !ok {
				t.Fatal("binary operand rejected")
			}
			want := tensor.MatMul(w, b)
			got := tensor.New(m, n)
			CSCMatMulEventsSerialInto(got, csc, ev, false)
			if d := maxAbsDiffT(want, got); d != 0 {
				t.Fatalf("rate %v density %v: event kernel differs by %v", rate, density, d)
			}
			// Accumulate mode adds on top of prior contents.
			CSCMatMulEventsSerialInto(got, csc, ev, true)
			doubled := want.Clone()
			doubled.AddInPlace(want)
			if d := maxAbsDiffT(doubled, got); d > 1e-5 {
				t.Fatalf("rate %v density %v: accumulate differs by %v", rate, density, d)
			}
		}
	}
}

// TestFusedTimestepsMatchPerTimestep checks the batched-timestep GEMM — the
// event kernel run once on a FuseTimesteps pattern — against T independent
// per-timestep products.
func TestFusedTimestepsMatchPerTimestep(t *testing.T) {
	const m, k, n, T = 10, 36, 14, 5
	r := rng.New(61)
	_, c := maskedWeights(m, k, 0.2, r)
	csc := NewCSCFromCSR(c)
	evs := make([]*Events, T)
	wants := make([]*tensor.Tensor, T)
	for tt := 0; tt < T; tt++ {
		b := spikeMatrix(k, n, 0.1, r)
		ev, ok := EncodeEvents(b)
		if !ok {
			t.Fatal("binary operand rejected")
		}
		evs[tt] = ev
		wants[tt] = tensor.New(m, n)
		CSCMatMulEventsSerialInto(wants[tt], csc, ev, false)
	}
	fused := FuseTimesteps(evs)
	if fused.Rows != k || fused.Cols != T*n {
		t.Fatalf("fused shape [%d,%d], want [%d,%d]", fused.Rows, fused.Cols, k, T*n)
	}
	dst := tensor.New(m, T*n)
	CSCMatMulEventsSerialInto(dst, csc, fused, false)
	for tt := 0; tt < T; tt++ {
		for row := 0; row < m; row++ {
			for j := 0; j < n; j++ {
				got := dst.Data[row*T*n+tt*n+j]
				want := wants[tt].Data[row*n+j]
				if got != want {
					t.Fatalf("timestep %d [%d,%d]: fused %v, per-timestep %v", tt, row, j, got, want)
				}
			}
		}
	}
}

func TestMatMulEventsCSCMatchesDense(t *testing.T) {
	const batch, in, out = 7, 50, 16
	for _, rate := range spikeRates {
		r := rng.New(71 + uint64(rate*100))
		w, c := maskedWeights(out, in, 0.15, r)
		csc := NewCSCFromCSR(c)
		x := spikeMatrix(batch, in, rate, r)
		ev, ok := EncodeEvents(x)
		if !ok {
			t.Fatal("binary operand rejected")
		}
		want := tensor.MatMulABT(x, w)
		got := tensor.New(batch, out)
		MatMulEventsCSCInto(got, ev, csc, false)
		if d := maxAbsDiffT(want, got); d != 0 {
			t.Fatalf("rate %v: CSC event kernel differs by %v", rate, d)
		}
	}
}

func TestCSCGatherValues(t *testing.T) {
	r := rng.New(81)
	w, c := maskedWeights(9, 21, 0.3, r)
	csc := NewCSCFromCSR(c)
	// Drift the weights as an optimizer step would, re-gather, recompute.
	for i := range w.Data {
		w.Data[i] *= 1.5
	}
	c.GatherValues(w)
	csc.GatherValues(w)
	x := spikeMatrix(4, 21, 0.4, r)
	ev, _ := EncodeEvents(x)
	want := tensor.MatMulABT(x, w)
	got := tensor.New(4, 9)
	MatMulEventsCSCInto(got, ev, csc, false)
	if d := maxAbsDiffT(want, got); d != 0 {
		t.Fatalf("post-gather CSC kernel differs by %v", d)
	}
}
