package sparse

import (
	"sort"
	"testing"
	"time"

	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

// medianOf3 times fn three times after one warm-up call and returns the
// median.
func medianOf3(fn func()) time.Duration {
	fn()
	times := make([]time.Duration, 3)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[1]
}

// TestSparseKernelSpeedFloors times the sparse kernels against their
// baselines on a VGG-16 deep-stage layer (512 filters × 512·3·3 patch) on a
// 4×4 map (16 im2col columns).
// Wall-clock on shared hosts is noisy, so the floors only catch a broken
// engine: each sparse kernel must run at no less than half its baseline's
// speed, where the expected margins are ~30× (CSR training step at 99%) and
// 3–5× (the synapse walk against im2col plus the weight-only CSR kernel, at
// 90% weight sparsity and 10% spikes).
func TestSparseKernelSpeedFloors(t *testing.T) {
	const rows, cols, patch = 512, 4608, 16
	t.Run("csr-step-vs-dense", func(t *testing.T) {
		r := rng.New(997)
		w, c := maskedWeights(rows, cols, 0.01, r)
		colT := randDense(r, cols, patch)
		dy := randDense(r, rows, patch)
		y := tensor.New(rows, patch)
		dcol := tensor.New(cols, patch)
		dw := tensor.New(rows, cols)
		vals := make([]float32, c.NNZ())
		// One training step's GEMM trio: forward, backward-weight and
		// backward-data (active positions only on the CSR path).
		dense := medianOf3(func() {
			tensor.MatMulSerialInto(y, w, colT, false)
			tensor.MatMulABTSerialInto(dw, dy, colT, true)
			tensor.MatMulATBSerialInto(dcol, w, dy, false)
		})
		csr := medianOf3(func() {
			CSRMatMulSerialInto(y, c, colT, false)
			CSRGradABTSerial(vals, c, dy, colT)
			CSRMatMulATBSerialInto(dcol, c, dy, false)
		})
		if speedup := float64(dense) / float64(csr); speedup < 0.5 {
			t.Fatalf("CSR step at 99%% sparsity runs at %.2f× dense (dense %v, CSR %v)", speedup, dense, csr)
		}
	})
	t.Run("event-vs-csr", func(t *testing.T) {
		const inC, side = 512, 4
		r := rng.New(907)
		w, c := maskedWeights(rows, cols, 0.10, r)
		x := spikeMatrix(inC, side*side, 0.10, r)
		var evs []Event
		for i, v := range x.Data {
			if v != 0 {
				evs = append(evs, Event{Idx: int32(i), Val: v})
			}
		}
		table := NewConvTable(w.Data, nil, rows, inC, 3, 1, 1)
		col := tensor.New(cols, patch)
		y := tensor.New(rows, patch)
		csr := medianOf3(func() {
			tensor.Im2Col(col.Data, x.Data, inC, side, side, 3, 3, 1, 1, side, side)
			CSRMatMulSerialInto(y, c, col, false)
		})
		event := medianOf3(func() {
			clear(y.Data)
			table.Scatter(y.Data, evs, 1, side, side, side, side)
		})
		if speedup := float64(csr) / float64(event); speedup < 0.5 {
			t.Fatalf("synapse walk runs at %.2f× im2col plus weight-only CSR (CSR %v, walk %v)", speedup, csr, event)
		}
	})
}
