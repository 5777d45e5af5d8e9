package sparse

import (
	"math"
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

// randMasked returns a [rows,cols] matrix with ~density non-zeros, its 0/1
// mask, and a few active-but-exactly-zero positions (freshly grown weights).
func randMasked(r *rng.RNG, rows, cols int, density float64) (w, mask *tensor.Tensor) {
	w = tensor.New(rows, cols)
	mask = tensor.New(rows, cols)
	for i := range w.Data {
		if r.Float64() < density {
			mask.Data[i] = 1
			if r.Float64() < 0.1 {
				w.Data[i] = 0 // active zero: must stay in the pattern
			} else {
				w.Data[i] = r.NormFloat32()
			}
		}
	}
	return w, mask
}

func randDense(r *rng.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = r.NormFloat32()
	}
	return t
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestEncodeCSRWithMaskKeepsZeroActives(t *testing.T) {
	w := tensor.New(2, 3)
	mask := tensor.New(2, 3)
	w.Data = []float32{0, 1.5, 0, 0, 0, -2}
	mask.Data = []float32{1, 1, 0, 0, 1, 1} // (0,0) and (1,1) are active zeros

	if got := EncodeCSR(w).NNZ(); got != 2 {
		t.Fatalf("EncodeCSR stored %d values, want 2 (drops active zeros by design)", got)
	}
	c := EncodeCSRWithMask(w, mask)
	if c.NNZ() != 4 {
		t.Fatalf("EncodeCSRWithMask stored %d values, want 4 (mask topology)", c.NNZ())
	}
	// Round-trip: the pattern must equal the mask exactly.
	got := tensor.New(2, 3)
	for r := 0; r < c.Rows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			got.Data[r*c.Cols+int(c.ColIdx[p])] = 1
		}
	}
	for i := range mask.Data {
		if got.Data[i] != mask.Data[i] {
			t.Fatalf("pattern[%d] = %v, mask = %v: topology lost in round-trip", i, got.Data[i], mask.Data[i])
		}
	}
	if d := maxAbsDiff(c.Decode().Data, w.Data); d != 0 {
		t.Fatalf("decode differs from source by %v", d)
	}
}

func TestEncodeCSRWithMaskRoundTripRandom(t *testing.T) {
	r := rng.New(42)
	for _, density := range []float64{0.01, 0.1, 0.5, 1.0} {
		w, mask := randMasked(r, 17, 29, density)
		c := EncodeCSRWithMask(w, mask)
		active := 0
		for _, m := range mask.Data {
			if m != 0 {
				active++
			}
		}
		if c.NNZ() != active {
			t.Fatalf("density %v: NNZ %d != active %d", density, c.NNZ(), active)
		}
		if d := maxAbsDiff(c.Decode().Data, w.Data); d != 0 {
			t.Fatalf("density %v: decode differs by %v", density, d)
		}
	}
}

func TestGatherValuesRefreshesInPlace(t *testing.T) {
	r := rng.New(7)
	w, mask := randMasked(r, 9, 13, 0.3)
	c := EncodeCSRWithMask(w, mask)
	// Simulate optimizer steps: perturb every active value, keep topology.
	for i, m := range mask.Data {
		if m != 0 {
			w.Data[i] += r.NormFloat32()
		}
	}
	c.GatherValues(w)
	if d := maxAbsDiff(c.Decode().Data, w.Data); d != 0 {
		t.Fatalf("gathered values differ by %v", d)
	}
}

// kernelShapes spans tall, wide and square operands across the density range
// the Eq. 4 ramp reaches.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {3, 7, 5}, {16, 64, 9}, {64, 16, 33}, {31, 31, 31},
}

var kernelDensities = []float64{0, 0.01, 0.1, 0.5, 1.0}

func TestCSRMatMulMatchesDense(t *testing.T) {
	r := rng.New(1)
	for _, s := range kernelShapes {
		for _, d := range kernelDensities {
			w, mask := randMasked(r, s.m, s.k, d)
			b := randDense(r, s.k, s.n)
			a := EncodeCSRWithMask(w, mask)
			want := tensor.MatMul(w, b)

			got := tensor.New(s.m, s.n)
			CSRMatMulSerialInto(got, a, b, false)
			if diff := maxAbsDiff(got.Data, want.Data); diff > 1e-5 {
				t.Fatalf("[%d,%d]x[%d,%d] d=%v: CSRMatMul differs by %v", s.m, s.k, s.k, s.n, d, diff)
			}
			// Accumulate: dst pre-seeded, expect seed+product.
			seed := randDense(r, s.m, s.n)
			got2 := seed.Clone()
			CSRMatMulSerialInto(got2, a, b, true)
			for i := range got2.Data {
				if diff := math.Abs(float64(got2.Data[i] - (seed.Data[i] + want.Data[i]))); diff > 1e-5 {
					t.Fatalf("d=%v: accumulate differs by %v", d, diff)
				}
			}
		}
	}
}

func TestCSRMatMulATBMatchesDense(t *testing.T) {
	r := rng.New(2)
	for _, s := range kernelShapes {
		for _, d := range kernelDensities {
			w, mask := randMasked(r, s.m, s.k, d)
			b := randDense(r, s.m, s.n)
			a := EncodeCSRWithMask(w, mask)
			want := tensor.MatMulATB(w, b)

			got := tensor.New(s.k, s.n)
			CSRMatMulATBSerialInto(got, a, b, false)
			if diff := maxAbsDiff(got.Data, want.Data); diff > 1e-5 {
				t.Fatalf("shape %+v d=%v: CSRMatMulATB differs by %v", s, d, diff)
			}
		}
	}
}

func TestMatMulDenseCSRTMatchesDense(t *testing.T) {
	r := rng.New(3)
	for _, s := range kernelShapes {
		for _, d := range kernelDensities {
			w, mask := randMasked(r, s.m, s.k, d) // weight [out=m, in=k]
			x := randDense(r, s.n, s.k)           // batch n
			a := EncodeCSRWithMask(w, mask)
			want := tensor.MatMulABT(x, w)

			got := tensor.New(s.n, s.m)
			MatMulDenseCSRTInto(got, x, a, false)
			if diff := maxAbsDiff(got.Data, want.Data); diff > 1e-5 {
				t.Fatalf("shape %+v d=%v: MatMulDenseCSRT differs by %v", s, d, diff)
			}
		}
	}
}

func TestMatMulDenseCSRMatchesDense(t *testing.T) {
	r := rng.New(4)
	for _, s := range kernelShapes {
		for _, d := range kernelDensities {
			w, mask := randMasked(r, s.m, s.k, d)
			x := randDense(r, s.n, s.m)
			a := EncodeCSRWithMask(w, mask)
			want := tensor.MatMul(x, w)

			got := tensor.New(s.n, s.k)
			MatMulDenseCSRInto(got, x, a, false)
			if diff := maxAbsDiff(got.Data, want.Data); diff > 1e-5 {
				t.Fatalf("shape %+v d=%v: MatMulDenseCSR differs by %v", s, d, diff)
			}
		}
	}
}

func TestCSRGradABTMatchesDenseAtActivePositions(t *testing.T) {
	r := rng.New(5)
	for _, s := range kernelShapes {
		for _, d := range kernelDensities {
			w, mask := randMasked(r, s.m, s.k, d)
			pat := EncodeCSRWithMask(w, mask)
			dy := randDense(r, s.m, s.n)
			colT := randDense(r, s.k, s.n)
			want := tensor.MatMulABT(dy, colT) // dense dW [m,k]

			vals := make([]float32, pat.NNZ())
			CSRGradABTSerial(vals, pat, dy, colT)
			grad := tensor.New(s.m, s.k)
			AddValsInto(grad, pat, vals)
			for i, m := range mask.Data {
				if m != 0 {
					if diff := math.Abs(float64(grad.Data[i] - want.Data[i])); diff > 1e-5 {
						t.Fatalf("shape %+v d=%v: active grad[%d] differs by %v", s, d, i, diff)
					}
				} else if grad.Data[i] != 0 {
					t.Fatalf("shape %+v d=%v: inactive grad[%d] = %v, want 0", s, d, i, grad.Data[i])
				}
			}
		}
	}
}

func TestCSRGradATBMatchesDenseAtActivePositions(t *testing.T) {
	r := rng.New(6)
	for _, s := range kernelShapes {
		for _, d := range kernelDensities {
			w, mask := randMasked(r, s.m, s.k, d) // pattern [out=m, in=k]
			pat := EncodeCSRWithMask(w, mask)
			dy := randDense(r, s.n, s.m) // [batch, out]
			x := randDense(r, s.n, s.k)  // [batch, in]
			want := tensor.MatMulATB(dy, x)

			vals := make([]float32, pat.NNZ())
			CSRGradATBInto(vals, pat, dy, x)
			grad := tensor.New(s.m, s.k)
			AddValsInto(grad, pat, vals)
			for i, m := range mask.Data {
				if m != 0 {
					if diff := math.Abs(float64(grad.Data[i] - want.Data[i])); diff > 1e-5 {
						t.Fatalf("shape %+v d=%v: active grad[%d] differs by %v", s, d, i, diff)
					}
				}
			}
		}
	}
}
