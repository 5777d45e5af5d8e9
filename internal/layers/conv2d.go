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
	// they are binary spike tensors (see package tape). Backward replays it.
	xs     tape.Stack
	events eventTally
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

// convScratch bundles the per-worker buffers of the im2col/GEMM loop.
type convScratch struct {
	col     []float32
	colT    *tensor.Tensor
	rowPtr  []int32
	evIdx   []int32
	colSeen []bool
}

func newConvScratch(ckk, p int, withEvents bool) *convScratch {
	s := &convScratch{col: make([]float32, ckk*p)}
	s.colT = tensor.FromSlice(s.col, ckk, p)
	if withEvents {
		s.rowPtr = make([]int32, ckk+1)
		s.colSeen = make([]bool, p)
	}
	return s
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

// forwardSample runs one sample-timestep's GEMM into yb (shape [OutC, p]),
// choosing between the event-driven, weight-only CSR and dense paths exactly
// as documented on Forward, and adds the bias. A non-nil wbands routes the
// event path through the banded parallel kernel (sparse.Workers > 1);
// outputs are bit-identical either way.
func (l *Conv2d) forwardSample(yb *tensor.Tensor, src []float32, c, h, w, oh, ow int,
	wmat *tensor.Tensor, wcsr *sparse.CSR, wcsc *sparse.CSC, wbands *sparse.CSCBands, s *convScratch,
	tally *metrics.EventStats, maxRate float64) {
	p := oh * ow
	ckk := c * l.K * l.K
	tally.Forwards++
	eventDone := false
	if wcsr != nil {
		var binary bool
		s.evIdx, binary = tensor.Im2ColEvents(s.col, src, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow, s.rowPtr, s.evIdx[:0])
		if binary {
			ev := sparse.Events{Rows: ckk, Cols: p, RowPtr: s.rowPtr, ColIdx: s.evIdx}
			tally.Entries += int64(ckk * p)
			tally.ActiveEntries += int64(ev.NNZ())
			tally.Cols += int64(p)
			tally.ActiveCols += countActiveCols(s.evIdx, s.colSeen)
			// maxRate > 0 keeps the documented kill switch honest: at 0, even
			// all-zero (occupancy 0) inputs stay on the weight-only path.
			if maxRate > 0 && ev.Occupancy() <= maxRate {
				if wbands != nil {
					sparse.CSCMatMulEventsInto(yb, wbands, &ev, false)
				} else {
					sparse.CSCMatMulEventsSerialInto(yb, wcsc, &ev, false)
				}
				tally.EventForwards++
				eventDone = true
			}
		}
	} else {
		tensor.Im2Col(s.col, src, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
	}
	if !eventDone {
		if wcsr != nil {
			sparse.CSRMatMulSerialInto(yb, wcsr, s.colT, false)
		} else {
			tensor.MatMulSerialInto(yb, wmat, s.colT, false)
		}
	}
	l.addBias(yb, p)
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

// Forward computes one timestep of the convolution.
//
// When the weight is CSR-encoded and the input turns out to be a binary
// spike tensor (detected while building the im2col expansion), the forward
// takes the dual-sparse event-driven kernel: work scales with
// weightDensity × spikeOccupancy instead of weightDensity alone. Inputs
// whose occupancy exceeds EventMaxRate, or that contain analog values (the
// first layer under direct encoding, or post-BatchNorm currents), fall back
// to the weight-only CSR or dense GEMM path. All three paths produce
// bit-identical outputs.
//
// During training the input is recorded on the layer's tape — event-encoded
// when binary — and Backward replays it.
func (l *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b, c, h, w, oh, ow, p, ckk := l.geometry(x)
	out := tensor.New(b, l.OutC, oh, ow)
	wmat := l.Weight.W.Reshape(l.OutC, ckk)
	wcsr := l.Weight.SparseW()
	var wcsc *sparse.CSC
	var wbands *sparse.CSCBands
	if wcsr != nil {
		// The event kernel wants column-compressed weights (spikes select
		// weight columns); gathered once here, shared read-only by workers.
		// Batches too narrow to fill sparse.Workers batch-parallel lanes
		// take the row-banded bucketing instead: the per-sample event GEMM
		// itself fans out (bit-identical results). Wide batches already
		// saturate the host, so they skip the banded gather entirely.
		if b < sparse.EffectiveWorkers(l.OutC) {
			wbands = l.Weight.SparseWCSCBands()
		}
		if wbands == nil {
			wcsc = l.Weight.SparseWCSC()
		}
	}
	maxRate := EventMaxRate
	tensor.ParallelFor(b, l.OutC*ckk*p, func(lo, hi int) {
		s := newConvScratch(ckk, p, wcsr != nil)
		var tally metrics.EventStats
		for bi := lo; bi < hi; bi++ {
			src := x.Data[bi*c*h*w : (bi+1)*c*h*w]
			yb := tensor.FromSlice(out.Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
			l.forwardSample(yb, src, c, h, w, oh, ow, wmat, wcsr, wcsc, wbands, s, &tally, maxRate)
		}
		l.events.add(tally)
	})
	if train {
		l.xs.Push(x)
	}
	return out
}

// ForwardSeq is the time-major fast path: it processes all T timesteps of a
// batch in one call. When the weight is CSR-encoded and a sample's inputs
// are binary across every timestep (with fused occupancy at most
// EventMaxRate), the T event patterns are merged with sparse.FuseTimesteps
// and a single CSCMatMulEventsSerialInto computes all T products in one
// traversal of the weight matrix — the batched-timestep GEMM, end-to-end.
// Samples with analog or high-occupancy timesteps fall back to the same
// per-timestep decisions Forward makes. Outputs are bit-identical to T
// Forward calls, and the tape records the same per-timestep entries.
func (l *Conv2d) ForwardSeq(xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	T := len(xs)
	if T == 0 {
		return nil
	}
	wcsr := l.Weight.SparseW()
	if wcsr == nil || T == 1 {
		// No fusion opportunity: drive the per-timestep path.
		outs := make([]*tensor.Tensor, T)
		for t, x := range xs {
			outs[t] = l.Forward(x, train)
		}
		return outs
	}
	b, c, h, w, oh, ow, p, ckk := l.geometry(xs[0])
	for _, x := range xs[1:] {
		if !x.SameShape(xs[0]) {
			panic(fmt.Sprintf("layers: %s ForwardSeq timestep shapes diverge: %v vs %v", l.Weight.Name, x.Shape(), xs[0].Shape()))
		}
	}
	wmat := l.Weight.W.Reshape(l.OutC, ckk)
	// Same narrow-batch gate as Forward: kernel-level fan-out only when the
	// batch dimension cannot fill the workers on its own.
	var wbands *sparse.CSCBands
	if b < sparse.EffectiveWorkers(l.OutC) {
		wbands = l.Weight.SparseWCSCBands()
	}
	var wcsc *sparse.CSC
	if wbands == nil {
		wcsc = l.Weight.SparseWCSC()
	}
	outs := make([]*tensor.Tensor, T)
	for t := range outs {
		outs[t] = tensor.New(b, l.OutC, oh, ow)
	}
	maxRate := EventMaxRate
	chw := c * h * w
	tensor.ParallelFor(b, T*l.OutC*ckk*p, func(lo, hi int) {
		s := newConvScratch(ckk, p, true)
		// Per-timestep pattern buffers, reused across samples; the fused call
		// needs all T patterns alive at once.
		rowPtrs := make([][]int32, T)
		evIdxs := make([][]int32, T)
		evs := make([]*sparse.Events, T)
		for t := range rowPtrs {
			rowPtrs[t] = make([]int32, ckk+1)
		}
		var flat []int32
		ybuf := tensor.New(l.OutC, T*p)
		var tally metrics.EventStats
		for bi := lo; bi < hi; bi++ {
			// Pass 1: extract every timestep's event pattern straight from
			// the input (O(chw + K²·nnz) — the fused kernel never reads a
			// dense column matrix); abandon fusion on the first analog
			// timestep.
			fusable := true
			totalNNZ := 0
			for t := 0; t < T; t++ {
				src := xs[t].Data[bi*chw : (bi+1)*chw]
				flat = flat[:0]
				for i, v := range src {
					if v == 0 {
						continue
					}
					if v != 1 {
						fusable = false
						break
					}
					flat = append(flat, int32(i))
				}
				if !fusable {
					break
				}
				evIdxs[t] = tensor.Im2ColPatternFromEvents(flat, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow, rowPtrs[t], evIdxs[t][:0])
				evs[t] = &sparse.Events{Rows: ckk, Cols: p, RowPtr: rowPtrs[t], ColIdx: evIdxs[t]}
				totalNNZ += evs[t].NNZ()
			}
			occ := float64(totalNNZ) / float64(T*ckk*p)
			if fusable && maxRate > 0 && occ <= maxRate {
				for t := 0; t < T; t++ {
					tally.Forwards++
					tally.EventForwards++
					tally.Entries += int64(ckk * p)
					tally.ActiveEntries += int64(evs[t].NNZ())
					tally.Cols += int64(p)
					tally.ActiveCols += countActiveCols(evIdxs[t], s.colSeen)
				}
				fused := sparse.FuseTimesteps(evs)
				if wbands != nil {
					sparse.CSCMatMulEventsInto(ybuf, wbands, fused, false)
				} else {
					sparse.CSCMatMulEventsSerialInto(ybuf, wcsc, fused, false)
				}
				// Timestep t's output is ybuf[:, t·p:(t+1)·p].
				for t := 0; t < T; t++ {
					yb := tensor.FromSlice(outs[t].Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
					for f := 0; f < l.OutC; f++ {
						copy(yb.Data[f*p:(f+1)*p], ybuf.Data[f*T*p+t*p:f*T*p+(t+1)*p])
					}
					l.addBias(yb, p)
				}
			} else {
				// Mixed or high-occupancy sample: per-timestep decisions,
				// identical to Forward (which re-tallies from scratch).
				for t := 0; t < T; t++ {
					src := xs[t].Data[bi*chw : (bi+1)*chw]
					yb := tensor.FromSlice(outs[t].Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
					l.forwardSample(yb, src, c, h, w, oh, ow, wmat, wcsr, wcsc, wbands, s, &tally, maxRate)
				}
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

// countActiveCols counts the distinct column indices in evIdx, using seen as
// scratch (reset on entry; must cover every index in evIdx).
func countActiveCols(evIdx []int32, seen []bool) int64 {
	for j := range seen {
		seen[j] = false
	}
	var n int64
	for _, j := range evIdx {
		if !seen[j] {
			seen[j] = true
			n++
		}
	}
	return n
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

// Backward computes input gradients and accumulates weight/bias gradients
// for the most recent cached timestep, replaying the tape: an event-encoded
// record rebuilds the im2col event pattern straight from the recorded
// spikes, and when active-position-only gradients are allowed the weight
// gradient consumes the pattern directly (CSRGradABTEventsSerial), skipping
// zero-spike rows — backward-weight work then scales with
// weightDensity × spikeOccupancy like the forward pass.
func (l *Conv2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	rec := l.xs.Pop()
	shape := rec.Shape()
	b, c, h, w := shape[0], shape[1], shape[2], shape[3]
	oh, ow := dy.Dim(2), dy.Dim(3)
	p := oh * ow
	ckk := c * l.K * l.K
	chw := c * h * w
	dx := tensor.New(b, c, h, w)
	wmat := l.Weight.W.Reshape(l.OutC, ckk)
	wcsr := l.Weight.SparseW()
	xDense := rec.Dense()
	xEv := rec.Events()
	// dX always rides the CSR path when available; dW does so only when the
	// trainer has declared active-position-only gradients acceptable.
	sparseGrad := wcsr != nil && l.Weight.SparseGradOK
	// Kernel-level SDDMM fan-out pays off only when the batch partition
	// leaves workers idle; wide batches keep the serial per-sample kernels.
	kernelWorkers := 1
	if wcsr != nil && b < sparse.EffectiveWorkers(wcsr.Rows) {
		kernelWorkers = sparse.EffectiveWorkers(wcsr.Rows)
	}

	l.parallelGrad(b, ckk, wcsr, sparseGrad, func() sampleGrad {
		col := make([]float32, ckk*p)
		colT := tensor.FromSlice(col, ckk, p)
		dcol := make([]float32, ckk*p)
		dcolT := tensor.FromSlice(dcol, ckk, p)
		var xbuf []float32
		var rowPtr, evIdx []int32
		if xEv != nil {
			rowPtr = make([]int32, ckk+1)
			if !sparseGrad {
				xbuf = make([]float32, chw)
			}
		}
		return func(bi int, dwLocal *tensor.Tensor, valLocal, dbLocal []float32) {
			var ev *sparse.Events
			if xEv != nil && sparseGrad {
				// Replay: rebuild this sample's im2col event pattern straight
				// from the recorded input-space events — O(K²·nnz), no dense
				// expansion; the events SDDMM below never reads the column
				// matrix.
				flat := xEv.ColIdx[xEv.RowPtr[bi]:xEv.RowPtr[bi+1]]
				evIdx = tensor.Im2ColPatternFromEvents(flat, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow, rowPtr, evIdx[:0])
				ev = &sparse.Events{Rows: ckk, Cols: p, RowPtr: rowPtr, ColIdx: evIdx}
			} else if xEv != nil {
				// Dense weight gradients need the full column matrix: decode
				// the sample's spikes, expand, erase in O(nnz).
				xEv.ScatterRowInto(bi, xbuf, 1)
				tensor.Im2Col(col, xbuf, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
				xEv.ScatterRowInto(bi, xbuf, 0)
			} else {
				tensor.Im2Col(col, xDense.Data[bi*chw:(bi+1)*chw], c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
			}
			dyb := tensor.FromSlice(dy.Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
			if sparseGrad {
				// kernelWorkers > 1 fans the SDDMM out over nnz-balanced row
				// blocks of the weight pattern (bit-identical accumulation;
				// each vals[p] is owned by one worker).
				if ev != nil {
					sparse.CSRGradABTEventsInto(valLocal, wcsr, dyb, ev, kernelWorkers)
				} else {
					sparse.CSRGradABTInto(valLocal, wcsr, dyb, colT, kernelWorkers)
				}
			} else {
				tensor.MatMulABTSerialInto(dwLocal, dyb, colT, true)
			}
			if wcsr != nil {
				sparse.CSRMatMulATBSerialInto(dcolT, wcsr, dyb, false)
			} else {
				tensor.MatMulATBSerialInto(dcolT, wmat, dyb, false)
			}
			tensor.Col2Im(dx.Data[bi*chw:(bi+1)*chw], dcol, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
			if dbLocal != nil {
				for f := 0; f < l.OutC; f++ {
					var s float32
					for _, v := range dyb.Data[f*p : (f+1)*p] {
						s += v
					}
					dbLocal[f] += s
				}
			}
		}
	})
	return dx
}

// BackwardSeq consumes all T timestep gradients at once — the time-major
// backward replay. When every recorded timestep is event-encoded, the weight
// is CSR and active-position-only gradients are armed, the T im2col event
// patterns are rebuilt straight from the tape, merged by FuseTimesteps, and
// consumed by ONE events SDDMM against the column-concatenated dy — and
// backward-data likewise pays a single weight traversal for all T timesteps.
// The per-position pattern overhead and the CSR index loads amortize by T,
// which is where the tape's backward speedup lives. Anything else falls back
// to T Backward calls in reverse order. Input gradients are bit-identical to
// the step-major replay; weight/bias gradients accumulate the timesteps in
// ascending instead of descending order (float rounding only).
func (l *Conv2d) BackwardSeq(dys []*tensor.Tensor) []*tensor.Tensor {
	T := len(dys)
	wcsr := l.Weight.SparseW()
	fused := T > 1 && wcsr != nil && l.Weight.SparseGradOK && l.xs.Len() >= T
	if fused {
		for i := 0; i < T; i++ {
			if !l.xs.Peek(i).IsEvents() {
				fused = false
				break
			}
		}
	}
	if !fused {
		dxs := make([]*tensor.Tensor, T)
		for t := T - 1; t >= 0; t-- {
			dxs[t] = l.Backward(dys[t])
		}
		return dxs
	}
	recs := make([]*sparse.Events, T)
	var shape []int
	for t := T - 1; t >= 0; t-- {
		rec := l.xs.Pop()
		recs[t] = rec.Events()
		shape = rec.Shape()
	}
	b, c, h, w := shape[0], shape[1], shape[2], shape[3]
	oh, ow := dys[0].Dim(2), dys[0].Dim(3)
	p := oh * ow
	ckk := c * l.K * l.K
	chw := c * h * w
	dxs := make([]*tensor.Tensor, T)
	for t := range dxs {
		dxs[t] = tensor.New(b, c, h, w)
	}
	// Kernel-level SDDMM fan-out only when the batch partition leaves
	// workers idle, as in Backward.
	kernelWorkers := 1
	if b < sparse.EffectiveWorkers(wcsr.Rows) {
		kernelWorkers = sparse.EffectiveWorkers(wcsr.Rows)
	}

	l.parallelGrad(b, ckk, wcsr, true, func() sampleGrad {
		rowPtrs := make([][]int32, T)
		evIdxs := make([][]int32, T)
		evs := make([]*sparse.Events, T)
		for t := range rowPtrs {
			rowPtrs[t] = make([]int32, ckk+1)
		}
		dyF := tensor.New(l.OutC, T*p)
		dcolF := tensor.New(ckk, T*p)
		dcol := make([]float32, ckk*p)
		return func(bi int, _ *tensor.Tensor, valLocal, dbLocal []float32) {
			for t := 0; t < T; t++ {
				flat := recs[t].ColIdx[recs[t].RowPtr[bi]:recs[t].RowPtr[bi+1]]
				evIdxs[t] = tensor.Im2ColPatternFromEvents(flat, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow, rowPtrs[t], evIdxs[t][:0])
				evs[t] = &sparse.Events{Rows: ckk, Cols: p, RowPtr: rowPtrs[t], ColIdx: evIdxs[t]}
				// Column-concatenate the timestep gradients: dyF[f] holds
				// [t0 | t1 | …], matching the fused pattern's layout.
				src := dys[t].Data[bi*l.OutC*p : (bi+1)*l.OutC*p]
				for f := 0; f < l.OutC; f++ {
					copy(dyF.Data[f*T*p+t*p:f*T*p+(t+1)*p], src[f*p:(f+1)*p])
				}
			}
			evF := sparse.FuseTimesteps(evs)
			sparse.CSRGradABTEventsInto(valLocal, wcsr, dyF, evF, kernelWorkers)
			sparse.CSRMatMulATBSerialInto(dcolF, wcsr, dyF, false)
			for t := 0; t < T; t++ {
				for cc := 0; cc < ckk; cc++ {
					copy(dcol[cc*p:(cc+1)*p], dcolF.Data[cc*T*p+t*p:cc*T*p+(t+1)*p])
				}
				tensor.Col2Im(dxs[t].Data[bi*chw:(bi+1)*chw], dcol, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
			}
			if dbLocal != nil {
				for f := 0; f < l.OutC; f++ {
					var s float32
					for _, v := range dyF.Data[f*T*p : (f+1)*T*p] {
						s += v
					}
					dbLocal[f] += s
				}
			}
		}
	})
	return dxs
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
