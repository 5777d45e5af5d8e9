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
// ~2× (event forward at 90% weight sparsity, 10% spikes).
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
		r := rng.New(907)
		_, c := maskedWeights(rows, cols, 0.10, r)
		b := spikeMatrix(cols, patch, 0.10, r)
		ev, ok := EncodeEvents(b)
		if !ok {
			t.Fatal("binary operand rejected")
		}
		csc := NewCSCFromCSR(c)
		y := tensor.New(rows, patch)
		csr := medianOf3(func() { CSRMatMulSerialInto(y, c, b, false) })
		event := medianOf3(func() { CSCMatMulEventsSerialInto(y, csc, ev, false) })
		if speedup := float64(csr) / float64(event); speedup < 0.5 {
			t.Fatalf("event forward runs at %.2f× weight-only CSR (CSR %v, event %v)", speedup, csr, event)
		}
	})
}
