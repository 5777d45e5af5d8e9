package infer

import (
	"fmt"
	"math"
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/sparse"
)

// The per-kind conv walks the stages ran before they shared one synapse
// walk (now sparse.ConvTable.Scatter), kept as its oracle: the float walk,
// the spike-fed integer walk and the grid-fed integer walk, over tables of
// (f, ki, kj, weight) entries grouped by input channel. floatConvEntry is
// the float walk's old convEntry.

type floatConvEntry struct {
	f      int32 // output channel
	ki, kj int32 // kernel offsets
	w      float32
}

type qconvEntry struct {
	f      int32 // output channel
	ki, kj int32 // kernel offsets
	q      int32 // quantized level (dequantize with deq[f])
}

// convScatterEvents accumulates every (event × synapse) contribution of one
// timestep into the output buffer — the inner walk of the float conv stage.
// Returns the accumulate count (SynOps).
func convScatterEvents(out []float32, events []sparse.Event, perChannel [][]floatConvEntry,
	h, w, oh, ow, p, stride, pad int) int64 {
	var ops int64
	for _, ev := range events {
		idx := int(ev.Idx)
		ci := idx / (h * w)
		rem := idx % (h * w)
		y := rem / w
		x := rem % w
		for _, en := range perChannel[ci] {
			// Output position such that y = oy·stride + ki - pad.
			ny := y + pad - int(en.ki)
			nx := x + pad - int(en.kj)
			if ny < 0 || nx < 0 || ny%stride != 0 || nx%stride != 0 {
				continue
			}
			oy, ox := ny/stride, nx/stride
			if oy >= oh || ox >= ow {
				continue
			}
			out[int(en.f)*p+oy*ow+ox] += en.w * ev.Val
			ops++
		}
	}
	return ops
}

// qconvScatterEvents accumulates every (spike × quantized synapse)
// contribution of one timestep into the int32 accumulator — convScatterEvents
// with the multiply dropped (binary events × integer levels = adds). Returns
// the accumulate count (SynOps).
func qconvScatterEvents(acc []int32, events []sparse.Event, perChannel [][]qconvEntry,
	h, w, oh, ow, p, stride, pad int) int64 {
	var ops int64
	for _, ev := range events {
		idx := int(ev.Idx)
		ci := idx / (h * w)
		rem := idx % (h * w)
		y := rem / w
		x := rem % w
		for _, en := range perChannel[ci] {
			ny := y + pad - int(en.ki)
			nx := x + pad - int(en.kj)
			if ny < 0 || nx < 0 || ny%stride != 0 || nx%stride != 0 {
				continue
			}
			oy, ox := ny/stride, nx/stride
			if oy >= oh || ox >= ow {
				continue
			}
			acc[int(en.f)*p+oy*ow+ox] += en.q
			ops++
		}
	}
	return ops
}

// qconvScatterEventsGraded is qconvScatterEvents for a QuantInt input edge:
// each event carries an integer level (recovered exactly — 1/scale is a
// power of two; step validated the event list), and the accumulate is
// level×level products instead of adds. The op count (SynOps) is unchanged:
// one op per (event × active synapse), whatever the event's magnitude.
func qconvScatterEventsGraded(acc []int32, events []sparse.Event, perChannel [][]qconvEntry,
	h, w, oh, ow, p, stride, pad int, invIn float32) int64 {
	var ops int64
	for _, ev := range events {
		lvl := int32(ev.Val * invIn)
		idx := int(ev.Idx)
		ci := idx / (h * w)
		rem := idx % (h * w)
		y := rem / w
		x := rem % w
		for _, en := range perChannel[ci] {
			ny := y + pad - int(en.ki)
			nx := x + pad - int(en.kj)
			if ny < 0 || nx < 0 || ny%stride != 0 || nx%stride != 0 {
				continue
			}
			oy, ox := ny/stride, nx/stride
			if oy >= oh || ox >= ow {
				continue
			}
			acc[int(en.f)*p+oy*ow+ox] += en.q * lvl
			ops++
		}
	}
	return ops
}

// oracleTables builds the oracle walks' tables from the same dense row-major
// [outC, inC·k·k] matrices the production builder reads, as the compilers
// built them before the tables were grouped by offset: the non-zeros of
// each input channel in (f, ki, kj) order.
func oracleTables(wf []float32, wq []int32, outC, inC, k int) ([][]floatConvEntry, [][]qconvEntry) {
	fOld := make([][]floatConvEntry, inC)
	qOld := make([][]qconvEntry, inC)
	kk := k * k
	cols := inC * kk
	for f := 0; f < outC; f++ {
		for col := 0; col < cols; col++ {
			ci, ki, kj := int32(col/kk), int32(col%kk/k), int32(col%k)
			if v := wf[f*cols+col]; v != 0 {
				fOld[ci] = append(fOld[ci], floatConvEntry{int32(f), ki, kj, v})
			}
			if q := wq[f*cols+col]; q != 0 {
				qOld[ci] = append(qOld[ci], qconvEntry{int32(f), ki, kj, q})
			}
		}
	}
	return fOld, qOld
}

// randomEvents returns events at an ascending random subset of n positions
// (about half), each valued by val.
func randomEvents(r *rng.RNG, n int, val func() float32) []sparse.Event {
	var evs []sparse.Event
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.5) {
			evs = append(evs, sparse.Event{Idx: int32(i), Val: val()})
		}
	}
	return evs
}

// TestConvScatterMatchesOracle pins the shared conv walk, over the value-keyed
// tables the engine compiles, against the three walks it replaced on random
// weights, for float, spike and grid events: bit-identical outputs
// (math.Float32bits on the float walk) and equal SynOps.
func TestConvScatterMatchesOracle(t *testing.T) {
	const gridInv = 64 // a 2^-6 activation grid
	geoms := []struct{ inC, outC, k, stride, pad, h int }{
		{3, 4, 1, 1, 0, 7},
		{2, 5, 3, 1, 1, 8},
		{4, 3, 3, 2, 1, 9},
		{3, 2, 5, 1, 2, 6},
		{2, 4, 5, 2, 0, 11},
		{3, 3, 3, 2, 2, 5},
	}
	r := rng.New(91)
	for gi, g := range geoms {
		for trial := 0; trial < 4; trial++ {
			name := fmt.Sprintf("geom %d (k=%d stride=%d pad=%d) trial %d", gi, g.k, g.stride, g.pad, trial)
			// One random dense weight matrix per kind, about 60% live. A
			// live level is odd, so never zero: the compilers skip zeros.
			cols := g.inC * g.k * g.k
			wf, wq := make([]float32, g.outC*cols), make([]int32, g.outC*cols)
			for i := range wf {
				if r.Bernoulli(0.4) {
					continue
				}
				wf[i], wq[i] = r.NormFloat32(), int32(r.Intn(255))-127|1
			}
			fOld, qOld := oracleTables(wf, wq, g.outC, g.inC, g.k)
			fNew := sparse.NewConvTable(wf, nil, g.outC, g.inC, g.k, g.stride, g.pad)
			qNew := sparse.NewConvTable(wq, nil, g.outC, g.inC, g.k, g.stride, g.pad)
			h := g.h
			oh := (h+2*g.pad-g.k)/g.stride + 1
			p := oh * oh
			n := g.inC * h * h

			evs := randomEvents(r, n, r.NormFloat32)
			want, got := make([]float32, g.outC*p), make([]float32, g.outC*p)
			wantOps := convScatterEvents(want, evs, fOld, h, h, oh, oh, p, g.stride, g.pad)
			gotOps := fNew.Scatter(got, evs, 1, h, h, oh, oh)
			if gotOps != wantOps {
				t.Fatalf("%s float: SynOps %d, oracle %d", name, gotOps, wantOps)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s float: out[%d] = %v, oracle %v", name, i, got[i], want[i])
				}
			}

			spikes := randomEvents(r, n, func() float32 { return 1 })
			grid := randomEvents(r, n, func() float32 { return float32(int32(r.Intn(255))-127|1) / gridInv })
			for _, c := range []struct {
				kind string
				evs  []sparse.Event
				inv  float32
			}{{"spike", spikes, 1}, {"grid", grid, gridInv}} {
				want, got := make([]int32, g.outC*p), make([]int32, g.outC*p)
				var wantOps int64
				if c.kind == "spike" {
					wantOps = qconvScatterEvents(want, c.evs, qOld, h, h, oh, oh, p, g.stride, g.pad)
				} else {
					wantOps = qconvScatterEventsGraded(want, c.evs, qOld, h, h, oh, oh, p, g.stride, g.pad, c.inv)
				}
				gotOps := qNew.Scatter(got, c.evs, c.inv, h, h, oh, oh)
				if gotOps != wantOps {
					t.Fatalf("%s %s: SynOps %d, oracle %d", name, c.kind, gotOps, wantOps)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %s: acc[%d] = %d, oracle %d", name, c.kind, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestLinearScatterMatchesDenseMatVec pins the shared linear walk against
// an in-order dense matrix-vector product that skips zero weights: events
// in list order, each reaching every output in ascending order.
func TestLinearScatterMatchesDenseMatVec(t *testing.T) {
	r := rng.New(93)
	for trial := 0; trial < 12; trial++ {
		in, out := 1+r.Intn(40), 1+r.Intn(20)
		wf := make([]float32, out*in)
		wq := make([]int32, out*in)
		tf := make([][]linearEntry[float32], in)
		tq := make([][]linearEntry[int32], in)
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				if r.Bernoulli(0.4) {
					continue
				}
				wf[o*in+i], wq[o*in+i] = r.NormFloat32(), int32(r.Intn(255))-127
				tf[i] = append(tf[i], linearEntry[float32]{int32(o), wf[o*in+i]})
				if wq[o*in+i] != 0 {
					tq[i] = append(tq[i], linearEntry[int32]{int32(o), wq[o*in+i]})
				}
			}
		}
		evs := randomEvents(r, in, r.NormFloat32)
		want, got := make([]float32, out), make([]float32, out)
		var wantOps int64
		for _, ev := range evs {
			for o := 0; o < out; o++ {
				if w := wf[o*in+int(ev.Idx)]; w != 0 {
					want[o] += w * ev.Val
					wantOps++
				}
			}
		}
		if ops := linearScatter(got, evs, tf, 1); ops != wantOps {
			t.Fatalf("trial %d float: SynOps %d, dense %d", trial, ops, wantOps)
		}
		for o := range want {
			if math.Float32bits(got[o]) != math.Float32bits(want[o]) {
				t.Fatalf("trial %d float: out[%d] = %v, dense %v", trial, o, got[o], want[o])
			}
		}

		const gridInv = 16
		spikes := randomEvents(r, in, func() float32 { return 1 })
		grid := randomEvents(r, in, func() float32 { return float32(int32(r.Intn(255))-127|1) / gridInv })
		for _, c := range []struct {
			kind string
			evs  []sparse.Event
			inv  float32
		}{{"spike", spikes, 1}, {"grid", grid, gridInv}} {
			want, got := make([]int32, out), make([]int32, out)
			var wantOps int64
			for _, ev := range c.evs {
				for o := 0; o < out; o++ {
					if q := wq[o*in+int(ev.Idx)]; q != 0 {
						want[o] += q * int32(ev.Val*c.inv)
						wantOps++
					}
				}
			}
			if ops := linearScatter(got, c.evs, tq, c.inv); ops != wantOps {
				t.Fatalf("trial %d %s: SynOps %d, dense %d", trial, c.kind, ops, wantOps)
			}
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("trial %d %s: acc[%d] = %d, dense %d", trial, c.kind, o, got[o], want[o])
				}
			}
		}
	}
}
