package sparse

import (
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

// Tests for the tape-replay gradient kernel (events as the cached-activation
// operand), pinned against the dense-operand SDDMM it replaces, plus the
// Events row round trip and the FuseTimesteps edge cases.

func TestCSRGradABTEventsMatchesDense(t *testing.T) {
	const m, k, q = 9, 33, 24
	for _, rate := range spikeRates {
		r := rng.New(301 + uint64(rate*100))
		_, c := maskedWeights(m, k, 0.3, r)
		dy := tensor.New(m, q)
		for i := range dy.Data {
			dy.Data[i] = r.NormFloat32()
		}
		col := spikeMatrix(k, q, rate, r)
		ev, ok := EncodeEvents(col)
		if !ok {
			t.Fatal("binary operand rejected")
		}
		want := make([]float32, c.NNZ())
		CSRGradABTSerial(want, c, dy, col)
		got := make([]float32, c.NNZ())
		CSRGradABTEventsSerial(got, c, dy, ev)
		if d := maxAbsDiff(want, got); d > 1e-5 {
			t.Fatalf("rate %v: events ABT kernel differs by %v", rate, d)
		}
		// Accumulation adds on top of prior contents like the reference.
		CSRGradABTEventsSerial(got, c, dy, ev)
		CSRGradABTSerial(want, c, dy, col)
		if d := maxAbsDiff(want, got); d > 1e-5 {
			t.Fatalf("rate %v: events ABT accumulate differs by %v", rate, d)
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
		if got, want := ev.RowNNZ(row), 0; true {
			for j := 0; j < 17; j++ {
				if x.Data[row*17+j] != 0 {
					want++
				}
			}
			if got != want {
				t.Fatalf("row %d: RowNNZ %d, want %d", row, got, want)
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

// TestFuseTimestepsEdgeCases covers the degenerate patterns the time-major
// engine can hand the fuser: a single timestep, all-empty event patterns, and
// a timestep with 100% firing. In every case the fused kernel output must be
// bit-identical to per-timestep kernel calls.
func TestFuseTimestepsEdgeCases(t *testing.T) {
	const m, k, n = 8, 30, 12
	r := rng.New(341)
	_, c := maskedWeights(m, k, 0.2, r)
	csc := NewCSCFromCSR(c)

	cases := []struct {
		name  string
		rates []float64
	}{
		{"T=1", []float64{0.15}},
		{"all-empty", []float64{0, 0, 0}},
		{"full-firing-single", []float64{1}},
		{"mixed-with-full-and-empty", []float64{0, 1, 0.1}},
	}
	for _, tc := range cases {
		evs := make([]*Events, len(tc.rates))
		wants := make([]*tensor.Tensor, len(tc.rates))
		for tt, rate := range tc.rates {
			b := spikeMatrix(k, n, rate, r)
			ev, ok := EncodeEvents(b)
			if !ok {
				t.Fatalf("%s: binary operand rejected", tc.name)
			}
			evs[tt] = ev
			wants[tt] = tensor.New(m, n)
			CSCMatMulEventsSerialInto(wants[tt], csc, ev, false)
		}
		fused := FuseTimesteps(evs)
		T := len(tc.rates)
		if fused.Rows != k || fused.Cols != T*n {
			t.Fatalf("%s: fused shape [%d,%d], want [%d,%d]", tc.name, fused.Rows, fused.Cols, k, T*n)
		}
		wantNNZ := 0
		for _, ev := range evs {
			wantNNZ += ev.NNZ()
		}
		if fused.NNZ() != wantNNZ {
			t.Fatalf("%s: fused NNZ %d, want %d", tc.name, fused.NNZ(), wantNNZ)
		}
		dst := tensor.New(m, T*n)
		CSCMatMulEventsSerialInto(dst, csc, fused, false)
		for tt := 0; tt < T; tt++ {
			for row := 0; row < m; row++ {
				for j := 0; j < n; j++ {
					got := dst.Data[row*T*n+tt*n+j]
					want := wants[tt].Data[row*n+j]
					if got != want {
						t.Fatalf("%s: timestep %d [%d,%d]: fused %v, per-timestep %v", tc.name, tt, row, j, got, want)
					}
				}
			}
		}
	}

	// T=1 fusion must reproduce the single pattern verbatim (same indices,
	// same row pointers) — the fuser is a no-op there beyond a copy.
	b := spikeMatrix(k, n, 0.2, r)
	ev, _ := EncodeEvents(b)
	fused := FuseTimesteps([]*Events{ev})
	if fused.NNZ() != ev.NNZ() {
		t.Fatalf("T=1 fuse changed NNZ: %d vs %d", fused.NNZ(), ev.NNZ())
	}
	for i, j := range ev.ColIdx {
		if fused.ColIdx[i] != j {
			t.Fatalf("T=1 fuse changed ColIdx[%d]: %d vs %d", i, fused.ColIdx[i], j)
		}
	}
	for i, p := range ev.RowPtr {
		if fused.RowPtr[i] != p {
			t.Fatalf("T=1 fuse changed RowPtr[%d]: %d vs %d", i, fused.RowPtr[i], p)
		}
	}

	// Zero timesteps is defined as an empty pattern, not a panic.
	if empty := FuseTimesteps(nil); empty.NNZ() != 0 || empty.Rows != 0 {
		t.Fatalf("empty fuse: %+v", empty)
	}
}
