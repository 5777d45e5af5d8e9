package sparse

import (
	"testing"

	"ndsnn/internal/tensor"
)

// Go-native fuzz targets for the event kernels. Each target decodes a small
// structured problem from fuzzer-controlled bytes, computes an independent
// reference on the dense path and requires exact agreement — the kernels'
// documented contract is bit-identical results, not "close", because they
// replay the serial summation order. The seed corpus (f.Add here plus the checked-in
// testdata/fuzz entries) pins the edge cases a random seed would rarely hit:
// no events at all, every position firing, and single-row shapes. CI runs
// these corpus-only (a plain `go test` executes every seed without fuzzing);
// `go test -fuzz=FuzzName ./internal/sparse` explores from there.

// fuzzByte cycles through fuzzer bytes, treating an empty slice as all-zero.
func fuzzByte(bits []byte, i int) byte {
	if len(bits) == 0 {
		return 0
	}
	return bits[i%len(bits)]
}

// fuzzWeight maps a byte to a weight value with built-in sparsity: ~1/3 of
// bytes decode to an exact zero (a masked-out synapse), the rest to a small
// signed value that is exactly representable in float32.
func fuzzWeight(bits []byte, i int) float32 {
	b := fuzzByte(bits, i)
	if b%3 == 0 {
		return 0
	}
	return float32(int(b)-128) / 32
}

// fuzzBit decodes one {0,1} spike from the byte stream.
func fuzzBit(bits []byte, i int) float32 {
	b := fuzzByte(bits, i)
	if (b>>(uint(i)%8))&1 == 1 {
		return 1
	}
	return 0
}

// FuzzCSCEventForward checks the dual-sparse forward kernel: the CSC event
// matmul against a naive dense matmul — exact, for any weight pattern and
// spike pattern the fuzzer can construct.
func FuzzCSCEventForward(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), []byte{1, 7, 40, 200, 13}, []byte{0xa5, 0x3c})
	f.Add(uint8(2), uint8(3), uint8(2), []byte{5, 9, 77}, []byte{})          // no events at all
	f.Add(uint8(4), uint8(4), uint8(3), []byte{11, 250, 8}, []byte{0xff})    // every position fires
	f.Add(uint8(0), uint8(5), uint8(0), []byte{19, 4, 128, 3}, []byte{0x55}) // single output row, single column
	f.Fuzz(func(t *testing.T, mB, kB, nB uint8, wBits, evBits []byte) {
		m := 1 + int(mB)%6
		k := 1 + int(kB)%6
		n := 1 + int(nB)%5

		w := tensor.New(m, k)
		for i := range w.Data {
			w.Data[i] = fuzzWeight(wBits, i)
		}
		b := tensor.New(k, n)
		for i := range b.Data {
			b.Data[i] = fuzzBit(evBits, i)
		}
		ev, ok := EncodeEvents(b)
		if !ok {
			t.Fatal("EncodeEvents rejected a binary matrix")
		}

		// Dense reference, in the kernels' summation order (ascending inner
		// index): the event kernels only skip exact-zero terms, which can
		// never perturb a float sum.
		want := tensor.New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for q := 0; q < k; q++ {
					s += w.Data[i*k+q] * b.Data[q*n+j]
				}
				want.Data[i*n+j] = s
			}
		}

		serial := tensor.New(m, n)
		CSCMatMulEventsSerialInto(serial, NewCSCFromCSR(EncodeCSR(w)), ev, false)
		for i := range want.Data {
			if serial.Data[i] != want.Data[i] {
				t.Fatalf("serial event kernel [%d]: got %v, dense reference %v (m=%d k=%d n=%d)",
					i, serial.Data[i], want.Data[i], m, k, n)
			}
		}
	})
}

// FuzzCSRGradABTEvents checks the tape-replay SDDMM weight gradient: the
// event kernel against the dense-operand SDDMM over the decoded spike
// matrix.
func FuzzCSRGradABTEvents(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), []byte{1, 7, 40, 200}, []byte{90, 180, 14}, []byte{0xa5})
	f.Add(uint8(2), uint8(2), uint8(3), []byte{5, 9}, []byte{66, 7}, []byte{})      // no recorded events
	f.Add(uint8(3), uint8(3), uint8(2), []byte{11, 8}, []byte{3, 99}, []byte{0xff}) // full-rate replay
	f.Add(uint8(0), uint8(0), uint8(4), []byte{19, 4}, []byte{128}, []byte{0x0f})   // 1×1 pattern
	f.Fuzz(func(t *testing.T, mB, kB, qB uint8, wBits, aBits, evBits []byte) {
		m := 1 + int(mB)%6
		k := 1 + int(kB)%6
		q := 1 + int(qB)%6

		w := tensor.New(m, k)
		for i := range w.Data {
			w.Data[i] = fuzzWeight(wBits, i)
		}
		pattern := EncodeCSR(w)
		if pattern.NNZ() == 0 {
			t.Skip("empty pattern: nothing to accumulate into")
		}
		a := tensor.New(m, q)
		for i := range a.Data {
			a.Data[i] = float32(int(fuzzByte(aBits, i))-128) / 32
		}
		bm := tensor.New(k, q)
		for i := range bm.Data {
			bm.Data[i] = fuzzBit(evBits, i)
		}
		evB, ok := EncodeEvents(bm)
		if !ok {
			t.Fatal("EncodeEvents rejected a binary matrix")
		}

		// Dense-operand SDDMM reference over the decoded spike matrix. The
		// event kernel's per-position sum visits the same j ascending, minus
		// exact zeros, so agreement must be exact.
		want := make([]float32, pattern.NNZ())
		CSRGradABTSerial(want, pattern, a, bm)

		serial := make([]float32, pattern.NNZ())
		CSRGradABTEventsSerial(serial, pattern, a, evB)
		for p := range want {
			if serial[p] != want[p] {
				t.Fatalf("serial event SDDMM [%d]: got %v, dense reference %v (m=%d k=%d q=%d)",
					p, serial[p], want[p], m, k, q)
			}
		}
	})
}
