package sparse

import (
	"math"
	"testing"

	"ndsnn/internal/tensor"
)

// A Go-native fuzz target for the synapse table's walks. It decodes a small
// conv geometry, a weight matrix with exact zeros and an event list from
// fuzzer-controlled bytes, builds the tables through NewConvTable and
// requires exact agreement with the dense im2col oracles in
// convtable_test.go: the same bits and the same SynOps from the forward
// walk, the same bits from the gradient walk. The seeds pin what the fixed
// geometries of the walks' other tests miss: h ≠ w, stride 3, a stride
// greater than k, a 1×1 kernel at stride 2, no events and every position
// firing. CI runs them corpus-only (a plain `go test` executes every seed
// without fuzzing); `go test -fuzz=FuzzConvScatter ./internal/sparse`
// explores from there.

// fuzzByte cycles through fuzzer bytes, treating an empty slice as all-zero.
func fuzzByte(bits []byte, i int) byte {
	if len(bits) == 0 {
		return 0
	}
	return bits[i%len(bits)]
}

// The event kinds FuzzConvScatter decodes: analog values for the float
// walk, binary spikes and grid levels for the integer walks.
const (
	fuzzFloat = iota
	fuzzSpike
	fuzzGrid
)

// FuzzConvScatter checks the walks of tables from NewConvTable against the
// dense oracles, for any geometry, weight pattern and event list the fuzzer
// can construct. Every event list runs the float forward walk, and its
// positions, taken as spikes, run the gradient walk on a mask-keyed table;
// spike and grid lists also run the integer forward walk.
func FuzzConvScatter(f *testing.F) {
	// Arguments: inC, outC, k, stride, pad, h, w, event kind, weight bytes,
	// event bytes.
	f.Add(uint8(2), uint8(3), uint8(3), uint8(1), uint8(1), uint8(5), uint8(9), uint8(fuzzFloat), []byte{1, 7, 40, 200, 13}, []byte{0xa5, 0x3c, 0x11}) // h ≠ w
	f.Add(uint8(3), uint8(2), uint8(3), uint8(3), uint8(1), uint8(8), uint8(7), uint8(fuzzSpike), []byte{5, 9, 77, 250}, []byte{0x5a, 0xc3})           // stride 3
	f.Add(uint8(2), uint8(4), uint8(2), uint8(3), uint8(0), uint8(9), uint8(6), uint8(fuzzGrid), []byte{11, 250, 8, 131}, []byte{0x37, 0x80, 0x9e})    // stride > k
	f.Add(uint8(3), uint8(3), uint8(1), uint8(2), uint8(0), uint8(7), uint8(4), uint8(fuzzSpike), []byte{19, 4, 128, 3}, []byte{0x55})                 // 1×1 kernel at stride 2
	f.Add(uint8(2), uint8(2), uint8(3), uint8(2), uint8(1), uint8(6), uint8(6), uint8(fuzzFloat), []byte{66, 7, 91}, []byte{})                         // no events
	f.Add(uint8(2), uint8(3), uint8(3), uint8(2), uint8(1), uint8(7), uint8(5), uint8(fuzzSpike), []byte{23, 140, 61, 202, 17}, []byte{0xff})          // every position fires
	f.Add(uint8(1), uint8(2), uint8(5), uint8(2), uint8(2), uint8(10), uint8(3), uint8(fuzzGrid), []byte{200, 3, 98, 14, 77, 160}, []byte{0xff, 0x01}) // k 5, pad 2, w < k
	f.Fuzz(func(t *testing.T, inCB, outCB, kB, strideB, padB, hB, wB, kindB uint8, wBits, evBits []byte) {
		g := convGeom{
			inC: max(1, int(inCB)%5), outC: max(1, int(outCB)%6),
			k: max(1, int(kB)%6), stride: max(1, int(strideB)%5), pad: int(padB) % 3,
			h: max(1, int(hB)%11), w: max(1, int(wB)%11),
		}
		kind := int(kindB) % 3
		if g.h+2*g.pad < g.k || g.w+2*g.pad < g.k {
			t.Skip("no output position")
		}
		oh, ow := g.outSize()
		p := oh * ow
		ckk := g.inC * g.k * g.k

		// Levels are signed bytes, about a third exact zeros (masked-out
		// synapses); float weights are the levels over 32, exact in float32.
		// The mask also keeps the zeros of bytes divisible by 4: synapses
		// grown at zero, which only the mask-keyed table lists.
		wq := make([]int32, g.outC*ckk)
		wf := make([]float32, len(wq))
		mask := make([]float32, len(wq))
		for i := range wq {
			b := fuzzByte(wBits, i)
			if b%3 != 0 {
				wq[i] = int32(b) - 128
				wf[i] = float32(wq[i]) / 32
			}
			if b%3 != 0 || b%4 == 0 {
				mask[i] = 1
			}
		}

		// An odd byte fires: a spike, or the non-zero level b − 128, taken
		// as a float value (over 16) or as a grid value (over gridInv).
		const gridInv = 64
		var evs []Event
		for i := 0; i < g.inC*g.h*g.w; i++ {
			b := fuzzByte(evBits, i)
			if kind == fuzzSpike {
				b >>= uint(i) % 8
			}
			if b%2 == 0 {
				continue
			}
			v := float32(int(b)-128) / 16
			switch kind {
			case fuzzSpike:
				v = 1
			case fuzzGrid:
				v = float32(int(b)-128) / gridInv
			}
			evs = append(evs, Event{int32(i), v})
		}
		col := g.im2col(evs)

		want, got := make([]float32, g.outC*p), make([]float32, g.outC*p)
		wantOps := denseScatter(want, wf, col, 1)
		gotOps := NewConvTable(wf, nil, g.outC, g.inC, g.k, g.stride, g.pad).Scatter(got, evs, 1, g.h, g.w, oh, ow)
		if gotOps != wantOps {
			t.Fatalf("float: SynOps %d, oracle %d", gotOps, wantOps)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("float: out[%d] = %v, oracle %v", i, got[i], want[i])
			}
		}

		// The gradient walk reads only positions: dW over the live entries
		// of the mask, against the SDDMM of dy and the spikes' im2col.
		spikes, bin := spikesOf(evs)
		dy := make([]float32, g.outC*p)
		for i := range dy {
			dy[i] = float32(int(fuzzByte(evBits, 3*i+1))-128) / 16
		}
		pattern := EncodeCSRWithMask(tensor.FromSlice(wf, g.outC, ckk), tensor.FromSlice(mask, g.outC, ckk))
		wantG, gotG := make([]float32, pattern.NNZ()), make([]float32, pattern.NNZ())
		CSRGradABTSerial(wantG, pattern, tensor.FromSlice(dy, g.outC, p), g.im2col(bin))
		NewConvTable(wf, mask, g.outC, g.inC, g.k, g.stride, g.pad).ScatterGrad(gotG, spikes, dy, g.h, g.w, oh, ow)
		for i := range wantG {
			if math.Float32bits(gotG[i]) != math.Float32bits(wantG[i]) {
				t.Fatalf("gradient: vals[%d] = %v, oracle %v", i, gotG[i], wantG[i])
			}
		}
		if kind == fuzzFloat {
			return
		}

		inv := float32(1)
		if kind == fuzzGrid {
			inv = gridInv
		}
		wantQ, gotQ := make([]int32, g.outC*p), make([]int32, g.outC*p)
		wantOps = denseScatter(wantQ, wq, col, inv)
		gotOps = NewConvTable(wq, nil, g.outC, g.inC, g.k, g.stride, g.pad).Scatter(gotQ, evs, inv, g.h, g.w, oh, ow)
		if gotOps != wantOps {
			t.Fatalf("integer: SynOps %d, oracle %d", gotOps, wantOps)
		}
		for i := range wantQ {
			if gotQ[i] != wantQ[i] {
				t.Fatalf("integer: acc[%d] = %d, oracle %d", i, gotQ[i], wantQ[i])
			}
		}
	})
}
