package sparse

import (
	"testing"

	"ndsnn/internal/tensor"
)

// Go-native fuzz targets for the event kernels. Each target decodes a small
// structured problem from fuzzer-controlled bytes, computes an independent
// reference (the dense path for float kernels, the scalar reference kernels
// for integer ones) and requires exact agreement — the kernels' documented
// contract is bit-identical results, not "close", because they replay the
// serial summation order. The seed corpus (f.Add here plus the checked-in
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

// FuzzCSCAccumulateColumnsInt checks the register-blocked integer event
// accumulates — int8 and the packed-nibble int4 — against their scalar
// reference kernels: identical accumulators and identical SynOps
// counts for any pattern, level assignment and event-column list.
func FuzzCSCAccumulateColumnsInt(f *testing.F) {
	f.Add(uint8(5), uint8(4), []byte{1, 7, 40, 200, 13, 77}, []byte{0xa5})
	f.Add(uint8(3), uint8(3), []byte{5, 9, 250}, []byte{})      // no incoming spikes
	f.Add(uint8(6), uint8(5), []byte{11, 8, 129}, []byte{0xff}) // every column fires
	f.Add(uint8(0), uint8(0), []byte{19}, []byte{0x01})         // 1×1 matrix
	f.Fuzz(func(t *testing.T, rowsB, colsB uint8, wBits, colBits []byte) {
		m := 1 + int(rowsB)%16
		k := 1 + int(colsB)%16

		// Build matching int8 and packed-int4 CSC views of one fuzzed
		// pattern. Levels: full int8 range for the 8-bit kernel; the same
		// byte's sign-extended low nibble ([-8,7]) for the 4-bit one.
		a8 := &CSCInt8{Rows: m, Cols: k, ColPtr: make([]int32, k+1)}
		a4 := &CSCInt4{Rows: m, Cols: k, ColPtr: make([]int32, k+1)}
		var nibbles []int32
		for q := 0; q < k; q++ {
			for i := 0; i < m; i++ {
				b := fuzzByte(wBits, q*m+i)
				if b%3 == 0 { // masked-out synapse
					continue
				}
				a8.RowIdx = append(a8.RowIdx, int32(i))
				a8.Q = append(a8.Q, int8(b))
				a4.RowIdx = append(a4.RowIdx, int32(i))
				nibbles = append(nibbles, int32(int8(b<<4)>>4))
			}
			a8.ColPtr[q+1] = int32(len(a8.RowIdx))
			a4.ColPtr[q+1] = int32(len(a4.RowIdx))
		}
		a4.Packed = make([]byte, (len(nibbles)+1)/2)
		for p, lv := range nibbles {
			nib := byte(lv) & 0xF
			if p&1 == 0 {
				a4.Packed[p>>1] |= nib
			} else {
				a4.Packed[p>>1] |= nib << 4
			}
		}
		var cols []int32
		for q := 0; q < k; q++ {
			if fuzzBit(colBits, q) == 1 {
				cols = append(cols, int32(q))
			}
		}

		acc8 := make([]int32, m)
		ref8 := make([]int32, m)
		ops8 := CSCAccumulateColumnsInt8(acc8, a8, cols)
		wops8 := cscAccumulateColumnsInt8Scalar(ref8, a8, cols)
		if ops8 != wops8 {
			t.Fatalf("int8 SynOps: unrolled %d, scalar %d", ops8, wops8)
		}
		for i := range ref8 {
			if acc8[i] != ref8[i] {
				t.Fatalf("int8 acc[%d]: unrolled %d, scalar %d (m=%d k=%d nnz=%d)",
					i, acc8[i], ref8[i], m, k, a8.NNZ())
			}
		}

		acc4 := make([]int32, m)
		ref4 := make([]int32, m)
		ops4 := CSCAccumulateColumnsInt4(acc4, a4, cols)
		wops4 := cscAccumulateColumnsInt4Scalar(ref4, a4, cols)
		if ops4 != wops4 {
			t.Fatalf("int4 SynOps: unrolled %d, scalar %d", ops4, wops4)
		}
		for i := range ref4 {
			if acc4[i] != ref4[i] {
				t.Fatalf("int4 acc[%d]: unrolled %d, scalar %d (m=%d k=%d nnz=%d)",
					i, acc4[i], ref4[i], m, k, a4.NNZ())
			}
		}
		// The packed decode itself must match the nibble list the matrix was
		// built from.
		for p := range nibbles {
			if a4.Level(int32(p)) != nibbles[p] {
				t.Fatalf("int4 Level(%d): got %d, packed %d", p, a4.Level(int32(p)), nibbles[p])
			}
		}
	})
}
