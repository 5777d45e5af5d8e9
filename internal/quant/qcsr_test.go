package quant

import (
	"math"
	"testing"

	"ndsnn/internal/layers"
	"ndsnn/internal/rng"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

func randomCSR(rows, cols int, density float64, r *rng.RNG) *sparse.CSR {
	w := tensor.New(rows, cols)
	for i := range w.Data {
		if r.Float64() < density {
			w.Data[i] = r.NormFloat32()
		}
	}
	return sparse.EncodeCSR(w)
}

func TestPo2ScaleProperties(t *testing.T) {
	r := rng.New(3)
	for _, bits := range []int{2, 4, 8, 16} {
		levels := float64(int32(1)<<(bits-1) - 1)
		for i := 0; i < 200; i++ {
			maxAbs := float32(math.Exp(float64(r.NormFloat32()) * 4))
			s := Po2Scale(maxAbs, bits)
			// A power of two…
			frac, _ := math.Frexp(float64(s))
			if frac != 0.5 {
				t.Fatalf("Po2Scale(%v,%d)=%v is not a power of two", maxAbs, bits, s)
			}
			// …covering the range without clamping…
			if float64(maxAbs)/float64(s) > levels+0.5 {
				t.Fatalf("Po2Scale(%v,%d)=%v clamps: maxAbs/s=%v > levels %v", maxAbs, bits, s, float64(maxAbs)/float64(s), levels)
			}
			// …within 2x of the optimal uniform step.
			if float64(s) > 2*float64(maxAbs)/levels {
				t.Fatalf("Po2Scale(%v,%d)=%v loses more than 2x vs optimal %v", maxAbs, bits, s, float64(maxAbs)/levels)
			}
		}
	}
	if Po2Scale(0, 8) != 0 {
		t.Fatal("zero maxAbs must give a zero scale")
	}
}

func TestQuantizeCSRGridAndSharing(t *testing.T) {
	r := rng.New(11)
	c := randomCSR(24, 40, 0.3, r)
	for _, bits := range []int{2, 4, 8, 12, 16} {
		for _, perChannel := range []bool{true, false} {
			q, err := QuantizeCSR(c, bits, perChannel)
			if err != nil {
				t.Fatal(err)
			}
			// Indices are shared, not copied.
			if &q.RowPtr[0] != &c.RowPtr[0] || &q.ColIdx[0] != &c.ColIdx[0] {
				t.Fatal("QCSR must alias the source CSR's index arrays")
			}
			levels := int32(1)<<(bits-1) - 1
			dq := q.Dequantize()
			for row := 0; row < q.Rows; row++ {
				s := q.RowScale(row)
				for p := q.RowPtr[row]; p < q.RowPtr[row+1]; p++ {
					l := q.Level(int(p))
					if l > levels || l < -levels {
						t.Fatalf("bits=%d level %d outside ±%d", bits, l, levels)
					}
					// Rounding error bounded by half a step.
					if err := math.Abs(float64(c.Val[p] - dq.Val[p])); err > float64(s)/2+1e-12 {
						t.Fatalf("bits=%d perChannel=%v entry %d: error %v > s/2 = %v", bits, perChannel, p, err, s/2)
					}
					// Dequantization is exact: level × power-of-two scale.
					if dq.Val[p] != float32(l)*s {
						t.Fatalf("dequantized value %v != level %d × scale %v", dq.Val[p], l, s)
					}
				}
			}
		}
	}
	if _, err := QuantizeCSR(c, 1, true); err == nil {
		t.Fatal("1-bit width accepted")
	}
	if _, err := QuantizeCSR(c, 17, true); err == nil {
		t.Fatal("17-bit width accepted")
	}
}

func TestPerChannelScalesTighterThanPerTensor(t *testing.T) {
	// Per-channel scales never exceed the per-tensor scale (row maxima are
	// bounded by the global maximum and Po2Scale is monotone), so the
	// per-entry rounding error bound is uniformly tighter.
	r := rng.New(13)
	c := randomCSR(16, 32, 0.5, r)
	// Give rows very different magnitudes so the property is non-trivial.
	for row := 0; row < c.Rows; row++ {
		scale := float32(math.Exp(float64(row-8) / 2))
		for p := c.RowPtr[row]; p < c.RowPtr[row+1]; p++ {
			c.Val[p] *= scale
		}
	}
	pc, err := QuantizeCSR(c, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := QuantizeCSR(c, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	tensorScale := pt.RowScale(0)
	var pcErr, ptErr float64
	for row := 0; row < c.Rows; row++ {
		if pc.RowScale(row) > tensorScale {
			t.Fatalf("row %d per-channel scale %v exceeds per-tensor scale %v", row, pc.RowScale(row), tensorScale)
		}
	}
	dpc, dpt := pc.Dequantize(), pt.Dequantize()
	for p := range c.Val {
		pcErr = math.Max(pcErr, math.Abs(float64(c.Val[p]-dpc.Val[p])))
		ptErr = math.Max(ptErr, math.Abs(float64(c.Val[p]-dpt.Val[p])))
	}
	if pcErr > ptErr {
		t.Fatalf("per-channel max error %v worse than per-tensor %v", pcErr, ptErr)
	}
}

func TestQCSRMemoryAccounting(t *testing.T) {
	r := rng.New(19)
	c := randomCSR(8, 16, 0.6, r)
	nnz := int64(c.NNZ())
	cases := []struct {
		bits  int
		bytes int64
	}{{8, nnz}, {4, (nnz + 1) / 2}, {16, 2 * nnz}, {12, 2 * nnz}, {6, nnz}}
	for _, tc := range cases {
		q, err := QuantizeCSR(c, tc.bits, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.PackedValueBytes(); got != tc.bytes {
			t.Fatalf("bits=%d packed value bytes %d, want %d", tc.bits, got, tc.bytes)
		}
		want := 8*tc.bytes + nnz*16 + int64(c.Rows+1)*16 + int64(c.Rows)*32
		if got := q.MemoryBits(16); got != want {
			t.Fatalf("bits=%d MemoryBits %d, want %d", tc.bits, got, want)
		}
	}
}

func TestQuantizeParamsInvalidatesCSRCache(t *testing.T) {
	// Regression for the stale-cache bug: QuantizeParams mutates W in
	// place, so a CSR encoding gathered beforehand would keep stale values
	// (and keep paying SynOps for weights that quantized to exactly zero).
	r := rng.New(23)
	w := tensor.New(8, 12)
	mask := tensor.New(8, 12)
	for i := range w.Data {
		if r.Float64() < 0.3 {
			mask.Data[i] = 1
			w.Data[i] = r.NormFloat32()
		}
	}
	p := layers.NewParam("q.w", w)
	p.Mask = mask
	if p.SparseW() == nil {
		t.Fatal("test setup: param not CSR-eligible")
	}
	if !p.CSRCached() {
		t.Fatal("test setup: CSR cache not populated")
	}
	if _, err := QuantizeParams([]*layers.Param{p}, 4); err != nil {
		t.Fatal(err)
	}
	if p.CSRCached() {
		t.Fatal("QuantizeParams left a stale CSR cache behind")
	}
}
