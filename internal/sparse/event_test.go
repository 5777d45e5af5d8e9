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
	}
	analog := spikeMatrix(4, 4, 0.5, r)
	analog.Data[3] = 0.25
	if _, ok := EncodeEvents(analog); ok {
		t.Fatal("analog tensor accepted as binary")
	}
}
