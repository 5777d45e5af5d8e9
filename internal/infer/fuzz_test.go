package infer

import (
	"math"
	"testing"
)

// A Go-native fuzz target for the conv synapse walk. It decodes a small
// conv geometry, a weight matrix with exact zeros and an event list from
// fuzzer-controlled bytes, builds the offset-grouped table through the
// production builder and requires exact agreement with the oracle walks in
// scatter_test.go: the same bits and the same SynOps. The seeds pin what the
// fixed geometries of TestConvScatterMatchesOracle miss: h ≠ w, stride 3, a
// stride greater than k, a 1×1 kernel at stride 2, no events and every
// position firing. CI runs them corpus-only (a plain `go test` executes
// every seed without fuzzing); `go test -fuzz=FuzzConvScatter
// ./internal/infer` explores from there.

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

// FuzzConvScatter checks convScatter on tables from newConvTable against the
// oracle walks, for any geometry, weight pattern and event list the fuzzer
// can construct. Every event list runs the float walk; spike and grid lists
// also run the integer walk.
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
		inC := max(1, int(inCB)%5)
		outC := max(1, int(outCB)%6)
		k := max(1, int(kB)%6)
		stride := max(1, int(strideB)%5)
		pad := int(padB) % 3
		kind := int(kindB) % 3
		h := max(1, int(hB)%11)
		w := max(1, int(wB)%11)
		if h+2*pad < k || w+2*pad < k {
			t.Skip("no output position")
		}
		oh, ow := (h+2*pad-k)/stride+1, (w+2*pad-k)/stride+1
		p := oh * ow

		// Levels are signed bytes, about a third exact zeros (masked-out
		// synapses); float weights are the levels over 32, exact in float32.
		wq := make([]int32, outC*inC*k*k)
		wf := make([]float32, len(wq))
		for i := range wq {
			if b := fuzzByte(wBits, i); b%3 != 0 {
				wq[i] = int32(b) - 128
				wf[i] = float32(wq[i]) / 32
			}
		}
		fOld, qOld := oracleTables(wf, wq, outC, inC, k)

		// An odd byte fires: a spike, or the non-zero level b − 128, taken
		// as a float value (over 16) or as a grid value (over gridInv).
		const gridInv = 64
		var evs []Event
		for i := 0; i < inC*h*w; i++ {
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

		want, got := make([]float32, outC*p), make([]float32, outC*p)
		wantOps := convScatterEvents(want, evs, fOld, h, w, oh, ow, p, stride, pad)
		gotOps := convScatter(got, evs, newConvTable(wf, outC, inC, k, stride), 1, h, w, oh, ow, stride, pad)
		if gotOps != wantOps {
			t.Fatalf("float: SynOps %d, oracle %d", gotOps, wantOps)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("float: out[%d] = %v, oracle %v", i, got[i], want[i])
			}
		}
		if kind == fuzzFloat {
			return
		}

		wantQ, gotQ := make([]int32, outC*p), make([]int32, outC*p)
		inv := float32(1)
		if kind == fuzzSpike {
			wantOps = qconvScatterEvents(wantQ, evs, qOld, h, w, oh, ow, p, stride, pad)
		} else {
			inv = gridInv
			wantOps = qconvScatterEventsGraded(wantQ, evs, qOld, h, w, oh, ow, p, stride, pad, inv)
		}
		gotOps = convScatter(gotQ, evs, newConvTable(wq, outC, inC, k, stride), inv, h, w, oh, ow, stride, pad)
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
