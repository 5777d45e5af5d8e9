package layers_test

import (
	"fmt"
	"math"
	"testing"

	"ndsnn/internal/layers"
	"ndsnn/internal/rng"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// withEventRate runs fn with layers.EventMaxRate forced to rate and restores
// the previous gate afterwards.
func withEventRate(rate float64, fn func()) {
	old := layers.EventMaxRate
	layers.EventMaxRate = rate
	defer func() { layers.EventMaxRate = old }()
	fn()
}

// spikeTensor builds a binary {0,1} tensor with the given firing rate.
// rate 0 and 1 exercise the all-zero and all-ones edge cases.
func spikeTensor(r *rng.RNG, rate float64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		if r.Float64() < rate {
			x.Data[i] = 1
		}
	}
	return x
}

var eventRates = []float64{0, 0.05, 0.5, 1.0}

// zeroLiveWeight sets the first live weight of a masked parameter to exactly
// zero, keeping its mask bit: a synapse grown at zero.
func zeroLiveWeight(p *layers.Param) {
	for i, m := range p.Mask.Data {
		if m != 0 {
			p.W.Data[i] = 0
			return
		}
	}
}

// im2colNNZ counts the non-zeros tensor.Im2Col writes for every sample of a
// [B,C,H,W] input: the im2col entries a binary timestep fills.
func im2colNNZ(x *tensor.Tensor, k, stride, pad int) int64 {
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := tensor.ConvOutSize(h, k, stride, pad), tensor.ConvOutSize(w, k, stride, pad)
	col := make([]float32, c*k*k*oh*ow)
	var n int64
	for bi := 0; bi < b; bi++ {
		tensor.Im2Col(col, x.Data[bi*c*h*w:(bi+1)*c*h*w], c, h, w, k, k, stride, pad, oh, ow)
		for _, v := range col {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

// sameBits fails the test unless got and want hold the same bits.
func sameBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i, v := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
			t.Fatalf("%s: element %d is %v, dense %v", label, i, got.Data[i], v)
		}
	}
}

// TestConv2dEventPathMatchesDense is the layer-level event-driven ≡ dense
// property: for binary inputs across spike rates (including all-zero and
// all-ones), over a stride-1 and a stride-2 conv with h ≠ w, with one live
// weight of exactly zero, the event-driven forward matches the dense forward
// bit for bit, and its counters record exactly the non-zeros of the im2col
// matrix.
func TestConv2dEventPathMatchesDense(t *testing.T) {
	geoms := []struct{ inC, outC, k, stride, pad, h, w int }{
		{4, 8, 3, 1, 1, 6, 6},
		{3, 5, 3, 2, 1, 7, 5},
	}
	for gi, g := range geoms {
		for _, rate := range eventRates {
			label := fmt.Sprintf("geom %d (stride %d, %dx%d) rate %v", gi, g.stride, g.h, g.w, rate)
			r := rng.New(201 + uint64(10*gi) + uint64(rate*100))
			l := layers.NewConv2d("c", g.inC, g.outC, g.k, g.stride, g.pad, true, r)
			maskParam(l.Weight, 0.2, r)
			zeroLiveWeight(l.Weight)
			x := spikeTensor(r, rate, 2, g.inC, g.h, g.w)

			var yD, yE *tensor.Tensor
			withCSRDensity(0, func() { yD = l.Forward(x.Clone(), false) })
			l.Weight.InvalidateCSR()
			withCSRDensity(1, func() {
				withEventRate(1, func() { yE = l.Forward(x.Clone(), false) })
			})
			l.Weight.InvalidateCSR()

			st := l.EventStats()
			if st.EventForwards != st.Forwards/2 || st.EventForwards == 0 {
				t.Fatalf("%s: event path took %d of %d forwards, want the CSR half", label, st.EventForwards, st.Forwards)
			}
			sameBits(t, label, yE, yD)
			oh, ow := yD.Dim(2), yD.Dim(3)
			if want := int64(2 * g.inC * g.k * g.k * oh * ow); st.Entries != want {
				t.Fatalf("%s: %d entries, want %d", label, st.Entries, want)
			}
			if want := im2colNNZ(x, g.k, g.stride, g.pad); st.ActiveEntries != want {
				t.Fatalf("%s: %d active entries, im2col has %d non-zeros", label, st.ActiveEntries, want)
			}
		}
	}
}

func TestLinearEventPathMatchesDense(t *testing.T) {
	for _, rate := range eventRates {
		r := rng.New(211 + uint64(rate*100))
		l := layers.NewLinear("fc", 40, 12, true, r)
		maskParam(l.Weight, 0.15, r)
		zeroLiveWeight(l.Weight)
		x := spikeTensor(r, rate, 5, 40)

		var yD, yE *tensor.Tensor
		withCSRDensity(0, func() { yD = l.Forward(x.Clone(), false) })
		l.Weight.InvalidateCSR()
		withCSRDensity(1, func() {
			withEventRate(1, func() { yE = l.Forward(x.Clone(), false) })
		})
		l.Weight.InvalidateCSR()

		st := l.EventStats()
		if st.EventForwards == 0 {
			t.Fatalf("rate %v: event path never engaged", rate)
		}
		sameBits(t, fmt.Sprintf("rate %v", rate), yE, yD)
		if want := im2colNNZ(x.Reshape(5, 40, 1, 1), 1, 1, 0); st.ActiveEntries != want {
			t.Fatalf("rate %v: %d active entries, im2col has %d non-zeros", rate, st.ActiveEntries, want)
		}
	}
}

// TestEventPathFallsBackOnAnalogInput checks that non-binary inputs are
// routed to the weight-only CSR kernel and still match dense exactly.
func TestEventPathFallsBackOnAnalogInput(t *testing.T) {
	r := rng.New(221)
	l := layers.NewConv2d("c", 3, 6, 3, 1, 1, false, r)
	maskParam(l.Weight, 0.2, r)
	x := randInput(r, 2, 3, 5, 5) // analog currents, not spikes

	var yD, yS *tensor.Tensor
	withCSRDensity(0, func() { yD = l.Forward(x.Clone(), false) })
	l.Weight.InvalidateCSR()
	withCSRDensity(1, func() {
		withEventRate(1, func() { yS = l.Forward(x.Clone(), false) })
	})
	l.Weight.InvalidateCSR()

	if st := l.EventStats(); st.EventForwards != 0 {
		t.Fatalf("analog input took the event path %d times", st.EventForwards)
	}
	if d := maxDiff(yD, yS); d > 1e-5 {
		t.Fatalf("analog fallback differs from dense by %v", d)
	}
}

// TestEventMaxRateGate checks that the occupancy gate routes high-rate spike
// tensors away from the event kernel.
func TestEventMaxRateGate(t *testing.T) {
	r := rng.New(231)
	l := layers.NewConv2d("c", 3, 6, 3, 1, 1, false, r)
	maskParam(l.Weight, 0.2, r)
	x := spikeTensor(r, 0.9, 2, 3, 5, 5)
	withCSRDensity(1, func() {
		withEventRate(0.3, func() { l.Forward(x.Clone(), false) })
	})
	l.Weight.InvalidateCSR()
	st := l.EventStats()
	if st.EventForwards != 0 {
		t.Fatalf("90%% occupancy input took the event path %d times (gate 0.3)", st.EventForwards)
	}
	if st.ActiveEntries == 0 {
		t.Fatal("binary input not measured despite gate rejection")
	}

	// EventMaxRate = 0 is a kill switch: even an all-zero input (occupancy
	// 0) must stay on the weight-only path.
	l.ResetEventStats()
	silent := tensor.New(2, 3, 5, 5)
	withCSRDensity(1, func() {
		withEventRate(0, func() { l.Forward(silent, false) })
	})
	l.Weight.InvalidateCSR()
	if st := l.EventStats(); st.EventForwards != 0 {
		t.Fatalf("EventMaxRate=0 still routed %d forwards event-driven", st.EventForwards)
	}
}

// TestLinearBackwardSeqMatchesPerTimestep pins Linear's fused replay —
// Conv2d's at K = 1: per sample, one events SDDMM and one backward-data
// weight traversal for all T timesteps — against T per-timestep Backward
// calls: input gradients bit-identical, weight/bias gradients within float
// reordering tolerance.
func TestLinearBackwardSeqMatchesPerTimestep(t *testing.T) {
	const T, b, in, out = 4, 3, 40, 12
	for _, rate := range eventRates {
		build := func() (*layers.Linear, []*tensor.Tensor, []*tensor.Tensor) {
			r := rng.New(727 + uint64(rate*100))
			l := layers.NewLinear("fc", in, out, true, r)
			maskParam(l.Weight, 0.25, r)
			l.Weight.SparseGradOK = true
			xs := make([]*tensor.Tensor, T)
			dys := make([]*tensor.Tensor, T)
			for t2 := 0; t2 < T; t2++ {
				xs[t2] = spikeTensor(r, rate, b, in)
				dys[t2] = tensor.New(b, out)
				for i := range dys[t2].Data {
					dys[t2].Data[i] = r.NormFloat32()
				}
			}
			return l, xs, dys
		}

		var gRef, bRef *tensor.Tensor
		var dxRef []*tensor.Tensor
		withCSRDensity(1, func() {
			withEventRate(1, func() {
				// Reference: per-timestep replay in reverse order.
				l, xs, dys := build()
				for _, x := range xs {
					l.Forward(x, true)
				}
				dxRef = make([]*tensor.Tensor, T)
				for t2 := T - 1; t2 >= 0; t2-- {
					dxRef[t2] = l.Backward(dys[t2])
				}
				gRef, bRef = l.Weight.Grad.Clone(), l.Bias.Grad.Clone()

				// Fused: BackwardSeq consumes the whole tape at once.
				l2, xs2, dys2 := build()
				for _, x := range xs2 {
					l2.Forward(x, true)
				}
				dxs := l2.BackwardSeq(dys2)
				if d := maxDiff(gRef, l2.Weight.Grad); d > 1e-5 {
					t.Fatalf("rate %v: fused linear weight grad differs by %v", rate, d)
				}
				if d := maxDiff(bRef, l2.Bias.Grad); d > 1e-5 {
					t.Fatalf("rate %v: fused linear bias grad differs by %v", rate, d)
				}
				for t2 := 0; t2 < T; t2++ {
					for i := range dxRef[t2].Data {
						if dxRef[t2].Data[i] != dxs[t2].Data[i] {
							t.Fatalf("rate %v: fused dx[%d] not bit-identical at %d", rate, t2, i)
						}
					}
				}
			})
		})
	}
}

// TestLinearBackwardSeqFallsBackOnDenseRecords pins the fused path's gate:
// analog (dense-recorded) timesteps must take the per-timestep fallback and
// still produce correct gradients. That replay reduces each timestep
// through Conv2d's parallelGrad exactly as T Backward calls do, so the
// weight gradients match bit for bit.
func TestLinearBackwardSeqFallsBackOnDenseRecords(t *testing.T) {
	const T, b, in, out = 3, 2, 20, 8
	build := func() *layers.Linear {
		br := rng.New(733)
		bl := layers.NewLinear("fc", in, out, false, br)
		maskParam(bl.Weight, 0.3, br)
		bl.Weight.SparseGradOK = true
		return bl
	}
	l, ref := build(), build()
	r := rng.New(739)

	xs := make([]*tensor.Tensor, T)
	dys := make([]*tensor.Tensor, T)
	for t2 := 0; t2 < T; t2++ {
		xs[t2] = tensor.New(b, in)
		dys[t2] = tensor.New(b, out)
		for i := range xs[t2].Data {
			xs[t2].Data[i] = r.NormFloat32() // analog: dense records
		}
		for i := range dys[t2].Data {
			dys[t2].Data[i] = r.NormFloat32()
		}
	}
	withCSRDensity(1, func() {
		for _, x := range xs {
			l.Forward(x.Clone(), true)
			ref.Forward(x.Clone(), true)
		}
		l.BackwardSeq(dys)
		for t2 := T - 1; t2 >= 0; t2-- {
			ref.Backward(dys[t2])
		}
	})
	if d := maxDiff(ref.Weight.Grad, l.Weight.Grad); d != 0 {
		t.Fatalf("dense-record fallback grads differ by %v", d)
	}
}

// TestLinearMatchesDenseOracleBitForBit pins Linear bit for bit against the
// dense oracle at the default gates, over weight density {0.1, 0.9,
// unmasked} × input {spike rate 0, 0.05, 0.5, 1, analog} × active-position
// gradients {off, on}: every forward output equals tensor.MatMulABT(x, W) + b
// and every BackwardSeq input gradient equals tensor.MatMul(dy, W). The
// matrix covers the event, weight-only CSR and dense forwards and the fused
// and per-timestep replays; the kernels skip exact zeros, which only drops
// ±0 terms from sums that start at +0.
func TestLinearMatchesDenseOracleBitForBit(t *testing.T) {
	const T, b, in, out = 4, 7, 64, 24
	const analog = -1.0
	equalBits := func(label string, got, want *tensor.Tensor) {
		t.Helper()
		if !got.SameShape(want) {
			t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
		}
		for i, v := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
				t.Fatalf("%s: element %d is %v, oracle %v", label, i, got.Data[i], v)
			}
		}
	}
	for di, density := range []float64{0.1, 0.9, 1} {
		for ri, rate := range []float64{0, 0.05, 0.5, 1, analog} {
			for _, sparseGrad := range []bool{false, true} {
				label := fmt.Sprintf("density %v rate %v sparseGrad %v", density, rate, sparseGrad)
				r := rng.New(1401 + uint64(10*di+ri))
				l := layers.NewLinear("fc", in, out, true, r)
				if density < 1 {
					maskParam(l.Weight, density, r)
				}
				l.Weight.SparseGradOK = sparseGrad
				copy(l.Bias.W.Data, randInput(r, out).Data)
				xs := make([]*tensor.Tensor, T)
				dys := make([]*tensor.Tensor, T)
				for t2 := range xs {
					if rate == analog {
						xs[t2] = randInput(r, b, in)
					} else {
						xs[t2] = spikeTensor(r, rate, b, in)
					}
					dys[t2] = randInput(r, b, out)
				}
				ys := tape.Run([]tape.Layer{l}, xs, true)
				dxs := l.BackwardSeq(dys)
				if density == 0.1 && rate >= 0 && rate <= 0.05 && l.EventStats().EventForwards == 0 {
					t.Fatalf("%s: event forward never engaged", label)
				}
				for t2, x := range xs {
					want := tensor.MatMulABT(x, l.Weight.W)
					for i := range want.Data {
						want.Data[i] += l.Bias.W.Data[i%out]
					}
					equalBits(fmt.Sprintf("%s: y[%d]", label, t2), ys[t2], want)
					equalBits(fmt.Sprintf("%s: dx[%d]", label, t2), dxs[t2], tensor.MatMul(dys[t2], l.Weight.W))
				}
			}
		}
	}
}

// TestConv2dBackwardSeqEventCacheMatchesDenseCache replays a VGG-16
// deep-stage convolution (512→512 filters on an 8×8 map, batch 2, T=5) at
// 90% weight sparsity and 10% spikes, with active-position-only gradients
// and the default CSR and event gates, once from dense activation caches
// and once from the event-encoded tape. The fused event replay sums the
// timesteps in a different order, so the weight gradients agree within
// float noise, not bit for bit.
func TestConv2dBackwardSeqEventCacheMatchesDenseCache(t *testing.T) {
	const T, b, c, side = 5, 2, 512, 8
	r := rng.New(1217)
	conv := layers.NewConv2d("c", c, c, 3, 1, 1, false, r)
	maskParam(conv.Weight, 0.10, r)
	conv.Weight.SparseGradOK = true
	xs := make([]*tensor.Tensor, T)
	dys := make([]*tensor.Tensor, T)
	for t2 := range xs {
		xs[t2] = spikeTensor(r, 0.10, b, c, side, side)
		dys[t2] = randInput(r, b, c, side, side)
	}
	grad := func(events bool) *tensor.Tensor {
		old := tape.CacheEvents
		tape.CacheEvents = events
		defer func() { tape.CacheEvents = old }()
		conv.ForwardSeq(xs, true)
		conv.Weight.ZeroGrad()
		conv.BackwardSeq(dys)
		return conv.Weight.Grad.Clone()
	}
	dense := grad(false)
	if d := maxDiff(dense, grad(true)); d > 1e-4 {
		t.Fatalf("event-cache weight gradient differs from the dense-cache one by %v", d)
	}
}

// TestBackwardSeqMixedRecordsMatchDenseRecords replays a tape that mixes
// event and dense records — the middle timestep fires above the tape's 0.5
// cache gate — under active-position-only gradients on CSR weights, and pins
// every gradient bit for bit against the same replay from dense records only.
func TestBackwardSeqMixedRecordsMatchDenseRecords(t *testing.T) {
	type seqLayer interface {
		Forward(x *tensor.Tensor, train bool) *tensor.Tensor
		BackwardSeq(dys []*tensor.Tensor) []*tensor.Tensor
		Params() []*layers.Param
	}
	cases := []struct {
		name   string
		build  func(r *rng.RNG) seqLayer
		xShape []int
	}{
		{"conv", func(r *rng.RNG) seqLayer { return layers.NewConv2d("c", 4, 6, 3, 1, 1, true, r) }, []int{2, 4, 5, 5}},
		{"linear", func(r *rng.RNG) seqLayer { return layers.NewLinear("fc", 30, 7, true, r) }, []int{3, 30}},
	}
	replay := func(build func(*rng.RNG) seqLayer, xShape []int, events bool) []*tensor.Tensor {
		old := tape.CacheEvents
		tape.CacheEvents = events
		defer func() { tape.CacheEvents = old }()
		r := rng.New(1301)
		l := build(r)
		ps := l.Params()
		maskParam(ps[0], 0.3, r)
		ps[0].SparseGradOK = true
		var dys []*tensor.Tensor
		for _, rate := range []float64{0.1, 0.9, 0.1} {
			y := l.Forward(spikeTensor(r, rate, xShape...), true)
			dys = append(dys, randInput(r, y.Shape()...))
		}
		return append(l.BackwardSeq(dys), ps[0].Grad, ps[1].Grad)
	}
	for _, tc := range cases {
		mixed := replay(tc.build, tc.xShape, true)
		dense := replay(tc.build, tc.xShape, false)
		// Gradients in order: dx at t=0..2, then the weight, then the bias.
		for i := range mixed {
			for j, v := range mixed[i].Data {
				if math.Float32bits(v) != math.Float32bits(dense[i].Data[j]) {
					t.Fatalf("%s: gradient %d differs at %d: %v vs %v", tc.name, i, j, v, dense[i].Data[j])
				}
			}
		}
	}
}
