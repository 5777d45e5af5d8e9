package sparse

import (
	"fmt"
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

// randomIntCSC builds matching float CSC / int8 CSC / packed int4 CSC views
// of the same random integer-valued sparse matrix (levels in [-7,7] so all
// three precisions represent it exactly).
func randomIntCSC(rows, cols int, density float64, r *rng.RNG) (*CSC, *CSCInt8, *CSCInt4) {
	w := tensor.New(rows, cols)
	mask := tensor.New(rows, cols)
	for i := range w.Data {
		if r.Float64() < density {
			l := int8(r.Float64()*15) - 7
			if l == 0 {
				l = 1
			}
			w.Data[i] = float32(l)
			mask.Data[i] = 1
		}
	}
	csc := NewCSCFromCSR(EncodeCSRWithMask(w, mask))
	i8 := &CSCInt8{
		Rows: csc.Rows, Cols: csc.Cols,
		ColPtr: csc.ColPtr, RowIdx: csc.RowIdx,
		Q: make([]int8, csc.NNZ()),
	}
	for p, v := range csc.Val {
		i8.Q[p] = int8(v)
	}
	packed := make([]byte, (len(i8.Q)+1)/2)
	for p, v := range i8.Q {
		nib := byte(v) & 0xF
		if p%2 == 0 {
			packed[p/2] = nib
		} else {
			packed[p/2] |= nib << 4
		}
	}
	i4 := &CSCInt4{Rows: csc.Rows, Cols: csc.Cols, ColPtr: csc.ColPtr, RowIdx: csc.RowIdx, Packed: packed}
	return csc, i8, i4
}

func randomEvents(rows, cols int, rate float64, r *rng.RNG) (*Events, *tensor.Tensor) {
	b := tensor.New(rows, cols)
	for i := range b.Data {
		if r.Float64() < rate {
			b.Data[i] = 1
		}
	}
	ev, ok := EncodeEvents(b)
	if !ok {
		panic("sparse: test raster not binary")
	}
	return ev, b
}

func TestCSCAccumulateColumnsIntMatchesFloatKernel(t *testing.T) {
	r := rng.New(41)
	for _, rate := range []float64{0, 0.1, 0.5, 1} {
		csc, i8, i4 := randomIntCSC(17, 29, 0.4, r)
		ev, _ := randomEvents(29, 1, rate, r)
		// The float reference: one event column per active row of ev.
		var cols []int32
		for q := 0; q < ev.Rows; q++ {
			if ev.RowNNZ(q) > 0 {
				cols = append(cols, int32(q))
			}
		}
		want := tensor.New(17, 1)
		CSCMatMulEventsSerialInto(want, csc, ev, false)

		acc8 := make([]int32, 17)
		ops8 := CSCAccumulateColumnsInt8(acc8, i8, cols)
		acc4 := make([]int32, 17)
		ops4 := CSCAccumulateColumnsInt4(acc4, i4, cols)
		if ops8 != ops4 {
			t.Fatalf("rate=%v: int8 ops %d != int4 ops %d", rate, ops8, ops4)
		}
		var wantOps int64
		for _, q := range cols {
			wantOps += int64(i8.ColPtr[q+1] - i8.ColPtr[q])
		}
		if ops8 != wantOps {
			t.Fatalf("rate=%v: reported ops %d, want %d", rate, ops8, wantOps)
		}
		for i := range acc8 {
			if float32(acc8[i]) != want.Data[i] || acc4[i] != acc8[i] {
				t.Fatalf("rate=%v row %d: int8=%d int4=%d float=%v", rate, i, acc8[i], acc4[i], want.Data[i])
			}
		}
	}
}

func TestCSCMatMulEventsIntMatchesFloatKernel(t *testing.T) {
	r := rng.New(43)
	cases := []struct {
		rows, cols, n int
		density, rate float64
	}{
		{23, 31, 7, 0.35, 0},
		{23, 31, 7, 0.35, 0.05},
		{23, 31, 7, 0.35, 0.3},
		{23, 31, 7, 0.35, 1},
		// VGG-16 deep stage (512 filters × 512·3·3 patch, 4×4 map) at 90%
		// weight sparsity and 10% spikes.
		{512, 4608, 16, 0.10, 0.10},
	}
	for _, c := range cases {
		csc, i8, i4 := randomIntCSC(c.rows, c.cols, c.density, r)
		ev, _ := randomEvents(c.cols, c.n, c.rate, r)
		want := tensor.New(c.rows, c.n)
		CSCMatMulEventsSerialInto(want, csc, ev, false)
		got8 := make([]int32, c.rows*c.n)
		CSCMatMulEventsInt8SerialInto(got8, i8, ev, false)
		got4 := make([]int32, c.rows*c.n)
		CSCMatMulEventsInt4SerialInto(got4, i4, ev, false)
		for i := range got8 {
			if float32(got8[i]) != want.Data[i] || got4[i] != got8[i] {
				t.Fatalf("%d×%d rate=%v entry %d: int8=%d int4=%d float=%v", c.rows, c.cols, c.rate, i, got8[i], got4[i], want.Data[i])
			}
		}
		// Accumulate mode adds on top instead of overwriting.
		CSCMatMulEventsInt8SerialInto(got8, i8, ev, true)
		CSCMatMulEventsInt4SerialInto(got4, i4, ev, true)
		for i := range got8 {
			if got8[i] != 2*int32(want.Data[i]) || got4[i] != got8[i] {
				t.Fatalf("accumulate %d×%d rate=%v entry %d: int8=%d int4=%d want %v", c.rows, c.cols, c.rate, i, got8[i], got4[i], 2*int32(want.Data[i]))
			}
		}
	}
}

func TestCSCInt4LevelSignExtension(t *testing.T) {
	levels := []int8{-7, -1, 0, 1, 7, 3, -4}
	packed := make([]byte, (len(levels)+1)/2)
	for p, v := range levels {
		nib := byte(v) & 0xF
		if p%2 == 0 {
			packed[p/2] = nib
		} else {
			packed[p/2] |= nib << 4
		}
	}
	c := &CSCInt4{Rows: 1, Cols: 1, RowIdx: make([]int32, len(levels)), Packed: packed}
	for p, v := range levels {
		if got := c.Level(int32(p)); got != int32(v) {
			t.Fatalf("entry %d: Level=%d, want %d", p, got, v)
		}
	}
}

// cscAccumulateColumnsInt8Scalar is the scalar reference form of
// CSCAccumulateColumnsInt8: one load-add-store per stored synapse, no
// unrolling. The unrolled kernel must match it exactly.
func cscAccumulateColumnsInt8Scalar(acc []int32, a *CSCInt8, cols []int32) int64 {
	if len(acc) != a.Rows {
		panic(fmt.Sprintf("sparse: cscAccumulateColumnsInt8Scalar acc length %d, want %d", len(acc), a.Rows))
	}
	var ops int64
	for _, q := range cols {
		for p := a.ColPtr[q]; p < a.ColPtr[q+1]; p++ {
			acc[a.RowIdx[p]] += int32(a.Q[p])
			ops++
		}
	}
	return ops
}

// cscAccumulateColumnsInt4Scalar is the scalar reference form of
// CSCAccumulateColumnsInt4: one Level decode and add per stored synapse.
func cscAccumulateColumnsInt4Scalar(acc []int32, a *CSCInt4, cols []int32) int64 {
	if len(acc) != a.Rows {
		panic(fmt.Sprintf("sparse: cscAccumulateColumnsInt4Scalar acc length %d, want %d", len(acc), a.Rows))
	}
	var ops int64
	for _, q := range cols {
		for p := a.ColPtr[q]; p < a.ColPtr[q+1]; p++ {
			acc[a.RowIdx[p]] += a.Level(p)
			ops++
		}
	}
	return ops
}

func TestInt8AccumulateUnrolledMatchesScalar(t *testing.T) {
	r := rng.New(653)
	qc := randomCSCInt8(37, 41, 0.3, r)
	for _, rate := range spikeRates {
		cols := eventColumns(41, rate, r)
		// Duplicate columns exercise repeated accumulation into the same rows.
		cols = append(cols, cols...)
		want := make([]int32, qc.Rows)
		wops := cscAccumulateColumnsInt8Scalar(want, qc, cols)
		got := make([]int32, qc.Rows)
		gops := CSCAccumulateColumnsInt8(got, qc, cols)
		if wops != gops {
			t.Fatalf("rate %v: ops %d vs %d", rate, gops, wops)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("rate %v: unrolled int8 accumulate differs at %d: %d vs %d", rate, i, got[i], want[i])
			}
		}
	}
}

func TestInt4AccumulateUnrolledMatchesScalar(t *testing.T) {
	r := rng.New(659)
	q8 := randomCSCInt8(23, 29, 0.4, r)
	qc := int4FromInt8(q8)
	for _, rate := range spikeRates {
		cols := eventColumns(29, rate, r)
		want := make([]int32, qc.Rows)
		wops := cscAccumulateColumnsInt4Scalar(want, qc, cols)
		got := make([]int32, qc.Rows)
		gops := CSCAccumulateColumnsInt4(got, qc, cols)
		if wops != gops {
			t.Fatalf("rate %v: ops %d vs %d", rate, gops, wops)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("rate %v: unrolled int4 accumulate differs at %d: %d vs %d", rate, i, got[i], want[i])
			}
		}
	}
}

// randomCSCInt8 builds a random int8 CSC at the given density.
func randomCSCInt8(rows, cols int, density float64, r *rng.RNG) *CSCInt8 {
	c := &CSCInt8{Rows: rows, Cols: cols, ColPtr: make([]int32, cols+1)}
	for q := 0; q < cols; q++ {
		for ri := 0; ri < rows; ri++ {
			if r.Float64() < density {
				c.RowIdx = append(c.RowIdx, int32(ri))
				c.Q = append(c.Q, int8(r.Intn(255)-127))
			}
		}
		c.ColPtr[q+1] = int32(len(c.RowIdx))
	}
	return c
}

// int4FromInt8 packs an int8 CSC's pattern with 4-bit levels derived from
// the int8 levels (clamped to [-8,7]).
func int4FromInt8(c *CSCInt8) *CSCInt4 {
	out := &CSCInt4{
		Rows: c.Rows, Cols: c.Cols,
		ColPtr: c.ColPtr, RowIdx: c.RowIdx,
		Packed: make([]byte, (len(c.RowIdx)+1)/2),
	}
	for p, q := range c.Q {
		lv := int(q) >> 4 // [-8, 7]
		nib := byte(lv) & 0xF
		if p&1 == 0 {
			out.Packed[p>>1] |= nib
		} else {
			out.Packed[p>>1] |= nib << 4
		}
	}
	return out
}

// eventColumns draws the active-column index list of one timestep.
func eventColumns(k int, rate float64, r *rng.RNG) []int32 {
	var cols []int32
	for q := 0; q < k; q++ {
		if r.Float64() < rate {
			cols = append(cols, int32(q))
		}
	}
	return cols
}
