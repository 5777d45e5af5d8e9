package layers

import (
	"fmt"
	"runtime"
	"sync"

	"ndsnn/internal/metrics"
	"ndsnn/internal/rng"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// Conv2d is a 2-D convolution over [B,C,H,W] inputs with square kernels,
// symmetric zero padding and an im2col/GEMM implementation parallelized
// across the batch.
type Conv2d struct {
	InC, OutC, K, Stride, Pad int

	// Weight has shape [OutC, InC, K, K]; Bias (optional) has shape [OutC].
	Weight *Param
	Bias   *Param

	// xs is the layer's BPTT tape: per-timestep inputs, event-encoded when
	// they are binary spike tensors (see package tape). BackwardSeq replays it.
	xs     tape.Stack
	events eventTally
	// table is the synapse table of the CSR encoding tableFor, which the
	// event-driven forward and the fused replay's weight gradient walk.
	table    *sparse.ConvTable[float32]
	tableFor *sparse.CSR
}

// NewConv2d constructs a convolution layer with Kaiming-normal weights.
// When withBias is false the layer has no bias term (the usual choice when a
// BatchNorm follows).
func NewConv2d(name string, inC, outC, k, stride, pad int, withBias bool, r *rng.RNG) *Conv2d {
	w := tensor.New(outC, inC, k, k)
	KaimingNormal(w, inC*k*k, r)
	l := &Conv2d{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: NewParam(name+".w", w),
	}
	if withBias {
		l.Bias = NewParam(name+".b", tensor.New(outC))
		l.Bias.NoDecay = true
		l.Bias.NoPrune = true
	}
	return l
}

func (l *Conv2d) geometry(x *tensor.Tensor) (b, c, h, w, oh, ow, p, ckk int) {
	b, c, h, w = x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != l.InC {
		panic(fmt.Sprintf("layers: %s expects %d input channels, got %d", l.Weight.Name, l.InC, c))
	}
	oh = tensor.ConvOutSize(h, l.K, l.Stride, l.Pad)
	ow = tensor.ConvOutSize(w, l.K, l.Stride, l.Pad)
	p = oh * ow
	ckk = c * l.K * l.K
	return
}

func (l *Conv2d) addBias(yb *tensor.Tensor, p int) {
	if l.Bias == nil {
		return
	}
	for f := 0; f < l.OutC; f++ {
		bv := l.Bias.W.Data[f]
		row := yb.Data[f*p : (f+1)*p]
		for j := range row {
			row[j] += bv
		}
	}
}

// Forward computes one timestep of the convolution: the T=1 case of
// ForwardSeq.
func (l *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.ForwardSeq([]*tensor.Tensor{x}, train)[0]
}

// ForwardSeq computes all T timesteps of a batch in one call, one sample at a
// time across the worker pool. When the weight is CSR-encoded and a sample's
// input is binary at every timestep with im2col occupancy at most
// EventMaxRate, each timestep's spike list walks the layer's synapse table
// (sparse.ConvTable.Scatter): work scales with weightDensity × spikeRate and
// no column matrix is built. Any other sample (analog input such as the
// first layer under direct encoding or post-BatchNorm currents, a hot
// sample, or a dense weight) runs im2col and the weight-only CSR or dense
// GEMM per timestep. Both paths produce bit-identical outputs.
//
// During training every timestep's input is recorded on the layer's tape —
// event-encoded when binary — and BackwardSeq replays it.
func (l *Conv2d) ForwardSeq(xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	T := len(xs)
	if T == 0 {
		return nil
	}
	b, c, h, w, oh, ow, p, ckk := l.geometry(xs[0])
	for _, x := range xs[1:] {
		if !x.SameShape(xs[0]) {
			panic(fmt.Sprintf("layers: %s ForwardSeq timestep shapes diverge: %v vs %v", l.Weight.Name, x.Shape(), xs[0].Shape()))
		}
	}
	wmat := l.Weight.W.Reshape(l.OutC, ckk)
	wcsr := l.Weight.SparseW()
	var table *sparse.ConvTable[float32]
	var rowHits, colHits []int
	if wcsr != nil {
		// Gathered once here, shared read-only by the workers.
		table = l.synapseTable(wcsr)
		table.Gather(wcsr.Val)
		rowHits = offsetHits(h, oh, l.K, l.Stride, l.Pad)
		colHits = offsetHits(w, ow, l.K, l.Stride, l.Pad)
	}
	outs := make([]*tensor.Tensor, T)
	for t := range outs {
		outs[t] = tensor.New(b, l.OutC, oh, ow)
	}
	maxRate := EventMaxRate
	chw := c * h * w
	tensor.ParallelFor(b, T*l.OutC*ckk*p, func(lo, hi int) {
		col := make([]float32, ckk*p)
		colT := tensor.FromSlice(col, ckk, p)
		// Per-timestep spike lists, reused across samples: the gate needs
		// every timestep counted before the first walk.
		evs := make([][]sparse.Event, T)
		var tally metrics.EventStats
		for bi := lo; bi < hi; bi++ {
			tally.Forwards += int64(T)
			if table != nil {
				// List every binary timestep's spikes and count the im2col
				// entries they fill: a spike at (y, x) fills one per kernel
				// offset that carries it to an output, rowHits[y]·colHits[x].
				// An analog timestep rules out the walk.
				binary := true
				active := 0
				for t := 0; t < T; t++ {
					ev := evs[t][:0]
					n := 0
					for i, v := range xs[t].Data[bi*chw : (bi+1)*chw] {
						if v == 0 {
							continue
						}
						if v != 1 {
							n = -1
							break
						}
						ev = append(ev, sparse.Event{Idx: int32(i), Val: 1})
						rem := i % (h * w)
						n += rowHits[rem/w] * colHits[rem%w]
					}
					if n < 0 {
						binary = false
						continue
					}
					evs[t] = ev
					active += n
					tally.Entries += int64(ckk * p)
					tally.ActiveEntries += int64(n)
				}
				occ := float64(active) / float64(T*ckk*p)
				// maxRate > 0 keeps the documented kill switch honest: at 0, even
				// all-zero (occupancy 0) inputs stay on the weight-only path.
				if binary && maxRate > 0 && occ <= maxRate {
					tally.EventForwards += int64(T)
					for t := 0; t < T; t++ {
						yb := tensor.FromSlice(outs[t].Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
						table.Scatter(yb.Data, evs[t], 1, h, w, oh, ow)
						l.addBias(yb, p)
					}
					continue
				}
			}
			for t := 0; t < T; t++ {
				yb := tensor.FromSlice(outs[t].Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
				tensor.Im2Col(col, xs[t].Data[bi*chw:(bi+1)*chw], c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
				if wcsr != nil {
					sparse.CSRMatMulSerialInto(yb, wcsr, colT, false)
				} else {
					tensor.MatMulSerialInto(yb, wmat, colT, false)
				}
				l.addBias(yb, p)
			}
		}
		l.events.add(tally)
	})
	if train {
		for _, x := range xs {
			l.xs.Push(x)
		}
	}
	return outs
}

// synapseTable returns the synapse table of wcsr's pattern, the layer's
// cached one while SparseW keeps returning the same encoding and a new one,
// keyed on the weight's mask like the encoding, once it changes. Its
// weights are whatever the last Gather left.
func (l *Conv2d) synapseTable(wcsr *sparse.CSR) *sparse.ConvTable[float32] {
	if l.tableFor != wcsr {
		l.table = sparse.NewConvTable(l.Weight.W.Data, l.Weight.Mask.Data, l.OutC, l.InC, l.K, l.Stride, l.Pad)
		l.tableFor = wcsr
	}
	return l.table
}

// offsetHits returns, for each input coordinate along an axis of n, the
// number of the k kernel offsets that carry it to one of the axis's on
// outputs: the im2col entries a spike there fills along that axis.
func offsetHits(n, on, k, stride, pad int) []int {
	hits := make([]int, n)
	for y := range hits {
		for ki := 0; ki < k; ki++ {
			if ty := y + pad - ki; ty >= 0 && ty%stride == 0 && ty/stride < on {
				hits[y]++
			}
		}
	}
	return hits
}

// EventStats returns the event-driven fast-path counters accumulated since
// the last ResetEventStats.
func (l *Conv2d) EventStats() metrics.EventStats { return l.events.snapshot() }

// ResetEventStats zeroes the event-path counters.
func (l *Conv2d) ResetEventStats() { l.events.reset() }

// sampleGrad runs the backward pass of batch sample bi, writing its weight
// gradient into dw (dense) or val (pattern-aligned, when the gradient is
// sparse) and its bias gradient into db (nil when the layer has no bias).
type sampleGrad func(bi int, dw *tensor.Tensor, val, db []float32)

// gradPartialFloats bounds the floats that one backward call's per-sample
// partial gradients hold at once (4 MiB). A batch whose partials would exceed
// it runs in windows of samples, each reduced before the next starts.
const gradPartialFloats = 1 << 20

// gradParts recycles parallelGrad's partial-gradient buffers across calls,
// so a backward pass does not allocate, and the runtime zero, a fresh one
// per layer and timestep.
var gradParts sync.Pool

// parallelGrad is the shared batch-partition/gradient-reduction scaffolding
// of the backward paths. It runs the samples on the tensor pool in
// contiguous strips, each sample into its own zeroed partial gradient, then
// adds the partials in sample order into a zeroed accumulator, which is added
// to Weight.Grad/Bias.Grad once. The kernels add one whole dot product per
// sample, so every gradient element is summed exactly as a serial pass over
// the batch sums it, at any GOMAXPROCS. newWorker is called once per strip:
// the sampleGrad it returns closes over that strip's scratch buffers and
// must write only its partial and its own sample's input gradient.
func (l *Conv2d) parallelGrad(b, ckk int, wcsr *sparse.CSR, sparseGrad bool, newWorker func() sampleGrad) {
	strips := min(runtime.GOMAXPROCS(0), b)
	n := l.OutC * ckk
	if sparseGrad {
		n = wcsr.NNZ()
	}
	nb := 0
	if l.Bias != nil {
		nb = l.OutC
	}
	slot := n + nb
	window := min(b, max(strips, gradPartialFloats/max(slot, 1)))
	// Slot 0 is the accumulator, slot 1+i the partial of the window's sample
	// i: its weight part, then its bias part.
	buf, _ := gradParts.Get().(*[]float32)
	if buf == nil || cap(*buf) < (window+1)*slot {
		buf = new([]float32)
		*buf = make([]float32, (window+1)*slot)
	}
	defer gradParts.Put(buf)
	parts := (*buf)[:(window+1)*slot]
	clear(parts[:slot])
	workers := make([]sampleGrad, strips)
	for lo := 0; lo < b; lo += window {
		hi := min(lo+window, b)
		tensor.ParallelForStriped(hi-lo, strips, func(s, from, to int) {
			if workers[s] == nil {
				workers[s] = newWorker()
			}
			for i := from; i < to; i++ {
				part := parts[(i+1)*slot : (i+2)*slot]
				clear(part)
				var dw *tensor.Tensor
				var val, db []float32
				if sparseGrad {
					val = part[:n]
				} else {
					dw = tensor.FromSlice(part[:n], l.OutC, ckk)
				}
				if nb > 0 {
					db = part[n:]
				}
				workers[s](lo+i, dw, val, db)
			}
		})
		for i := 1; i <= hi-lo; i++ {
			addInto(parts[:slot], parts[i*slot:(i+1)*slot])
		}
	}
	gw := l.Weight.Grad.Reshape(l.OutC, ckk)
	if sparseGrad {
		sparse.AddValsInto(gw, wcsr, parts[:n])
	} else {
		addInto(gw.Data, parts[:n])
	}
	if nb > 0 {
		addInto(l.Bias.Grad.Data, parts[n:slot])
	}
}

// addInto adds src into dst elementwise.
func addInto(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// Backward computes the input gradient and accumulates the weight and bias
// gradients of the most recent recorded timestep: the T=1 case of
// BackwardSeq.
func (l *Conv2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return l.BackwardSeq([]*tensor.Tensor{dy})[0]
}

// BackwardSeq replays the tape for the last T recorded timesteps, given their
// output gradients dys[0..T-1]: it accumulates the weight and bias gradients
// and returns the input gradient of every timestep.
//
// When the weight is CSR, active-position-only gradients are armed and every
// record is event-encoded, each sample's recorded spike lists walk the
// layer's synapse table (sparse.ConvTable.ScatterGrad), timestep by
// timestep, into its live-weight gradient, so backward-weight work scales
// with weightDensity × spikeRate like the forward pass; backward-data pays a
// single weight traversal for all T timesteps. Otherwise the timesteps
// replay newest first, each through its own batch reduction: im2col over the
// decoded or dense record, then the active-position CSR SDDMM or the dense
// dy·colᵀ GEMM. Input gradients are identical on both paths; the fused one
// accumulates weight and bias gradients over the timesteps in ascending
// instead of descending order (float rounding only).
func (l *Conv2d) BackwardSeq(dys []*tensor.Tensor) []*tensor.Tensor {
	T := len(dys)
	if T == 0 {
		return nil
	}
	recs := make([]tape.Rec, T)
	for t := T - 1; t >= 0; t-- {
		recs[t] = l.xs.Pop()
	}
	wcsr := l.Weight.SparseW()
	// dX always rides the CSR path when available; dW does so only when the
	// trainer has declared active-position-only gradients acceptable.
	sparseGrad := wcsr != nil && l.Weight.SparseGradOK
	fused := sparseGrad
	for _, rec := range recs {
		fused = fused && rec.IsEvents()
	}
	shape := recs[0].Shape()
	b, c, h, w := shape[0], shape[1], shape[2], shape[3]
	oh, ow := dys[0].Dim(2), dys[0].Dim(3)
	p := oh * ow
	ckk := c * l.K * l.K
	chw := c * h * w
	wmat := l.Weight.W.Reshape(l.OutC, ckk)
	dxs := make([]*tensor.Tensor, T)
	for t := range dxs {
		dxs[t] = tensor.New(b, c, h, w)
	}

	if fused {
		table := l.synapseTable(wcsr)
		l.parallelGrad(b, ckk, wcsr, true, func() sampleGrad {
			dyF := tensor.New(l.OutC, T*p)
			dcolF := tensor.New(ckk, T*p)
			dcol := make([]float32, ckk*p)
			return func(bi int, _ *tensor.Tensor, valLocal, dbLocal []float32) {
				for t := 0; t < T; t++ {
					xEv := recs[t].Events()
					dy := dys[t].Data[bi*l.OutC*p : (bi+1)*l.OutC*p]
					table.ScatterGrad(valLocal, xEv.ColIdx[xEv.RowPtr[bi]:xEv.RowPtr[bi+1]], dy, h, w, oh, ow)
					// Column-concatenate the timestep gradients: dyF[f] holds
					// [t0 | t1 | …].
					for f := 0; f < l.OutC; f++ {
						copy(dyF.Data[f*T*p+t*p:f*T*p+(t+1)*p], dy[f*p:(f+1)*p])
					}
				}
				sparse.CSRMatMulATBSerialInto(dcolF, wcsr, dyF, false)
				for t := 0; t < T; t++ {
					for cc := 0; cc < ckk; cc++ {
						copy(dcol[cc*p:(cc+1)*p], dcolF.Data[cc*T*p+t*p:cc*T*p+(t+1)*p])
					}
					tensor.Col2Im(dxs[t].Data[bi*chw:(bi+1)*chw], dcol, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
				}
				addRowSums(dbLocal, dyF.Data, T*p)
			}
		})
		return dxs
	}

	for t := T - 1; t >= 0; t-- {
		xDense, xEv, dy, dx := recs[t].Dense(), recs[t].Events(), dys[t], dxs[t]
		l.parallelGrad(b, ckk, wcsr, sparseGrad, func() sampleGrad {
			col := make([]float32, ckk*p)
			colT := tensor.FromSlice(col, ckk, p)
			dcol := make([]float32, ckk*p)
			dcolT := tensor.FromSlice(dcol, ckk, p)
			var xbuf []float32
			if xEv != nil {
				xbuf = make([]float32, chw)
			}
			return func(bi int, dwLocal *tensor.Tensor, valLocal, dbLocal []float32) {
				if xEv != nil {
					// Decode the sample's spikes, expand, erase in O(nnz).
					xEv.ScatterRowInto(bi, xbuf, 1)
					tensor.Im2Col(col, xbuf, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
					xEv.ScatterRowInto(bi, xbuf, 0)
				} else {
					tensor.Im2Col(col, xDense.Data[bi*chw:(bi+1)*chw], c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
				}
				dyb := tensor.FromSlice(dy.Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
				if sparseGrad {
					sparse.CSRGradABTSerial(valLocal, wcsr, dyb, colT)
				} else {
					tensor.MatMulABTSerialInto(dwLocal, dyb, colT, true)
				}
				if wcsr != nil {
					sparse.CSRMatMulATBSerialInto(dcolT, wcsr, dyb, false)
				} else {
					tensor.MatMulATBSerialInto(dcolT, wmat, dyb, false)
				}
				tensor.Col2Im(dx.Data[bi*chw:(bi+1)*chw], dcol, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
				addRowSums(dbLocal, dyb.Data, p)
			}
		})
	}
	return dxs
}

// addRowSums adds the sum of each n-wide row of dy into db[row]; a nil db
// (a layer without bias) is a no-op.
func addRowSums(db, dy []float32, n int) {
	for f := range db {
		var s float32
		for _, v := range dy[f*n : (f+1)*n] {
			s += v
		}
		db[f] += s
	}
}

// Params returns the weight and optional bias.
func (l *Conv2d) Params() []*Param {
	if l.Bias != nil {
		return []*Param{l.Weight, l.Bias}
	}
	return []*Param{l.Weight}
}

// Reset drops cached timesteps.
func (l *Conv2d) Reset() { l.xs.Clear() }
