package sparse

// The offset-grouped synapse table: the event-driven convolution shared by
// training (Conv2d's forward and its live-weight gradient, with Linear as
// the 1×1 case) and by the inference engine's conv stages. A spike at input
// position (ci, y, x) reaches one output position per kernel offset (ki, kj)
// of channel ci, so the table lists, per input channel, its offsets, and per
// offset, its live synapses. The walks visit only the spikes and the live
// synapses they reach: work scales with weightDensity × spikeRate, with no
// im2col expansion of the input.

// Event is one non-zero activation: its flat index and its value. Training
// walks binary spikes (value 1); the inference engine also walks graded
// values, which make average pooling composable.
type Event struct {
	Idx int32
	Val float32
}

// Weight is the value type of a synapse table: float32 weights, or the int32
// quantized levels of the integer inference stages.
type Weight interface{ float32 | int32 }

// convEntry is one live synapse of a kernel offset: its output channel and
// weight.
type convEntry[W Weight] struct {
	f int32 // output channel
	w W
}

// convTap is one kernel offset (ki, kj) of an input channel, with its live
// synapses in output-channel order. The offset is stored as quotient and
// remainder by the table's stride — ki = qi·stride + ri, kj = qj·stride +
// rj — so the walk finds the output position without dividing. at is the
// index of syn[0] among the table's synapses.
type convTap[W Weight] struct {
	qi, ri, qj, rj int32
	at             int32
	syn            []convEntry[W]
}

// ConvTable is the synapse table of a k×k convolution: the live entries of
// its dense row-major [outC, inC·k·k] weight matrix, grouped by input
// channel, then by kernel offset in (ki, kj) order, then by output channel.
// It also records each synapse's source index, its row-major rank among the
// live entries, which is its index in the matrix's CSR encoding.
type ConvTable[W Weight] struct {
	stride, pad int
	perChannel  [][]convTap[W]
	syns        []convEntry[W] // every synapse, in table order; the taps slice it
	src         []int32        // src[i] is syns[i]'s source index
}

// NewConvTable builds the table of a k×k convolution with the given stride
// and padding from w, its dense row-major [outC, inC·k·k] weight matrix.
// With a nil mask the live entries are w's non-zeros (the inference
// engine's tables). Otherwise they are the non-zeros of mask, shaped like
// w, as in EncodeCSRWithMask: a synapse grown at zero keeps its slot, and
// the source indices follow that encoding. An offset with no live entry
// gets no tap. Taps and synapses each live in one exactly sized backing
// array.
func NewConvTable[W Weight](w []W, mask []float32, outC, inC, k, stride, pad int) *ConvTable[W] {
	kk := k * k
	cols := inC * kk
	live := func(i int) bool {
		if mask != nil {
			return mask[i] != 0
		}
		return w[i] != 0
	}
	// Column col = ci·k² + ki·k + kj holds one offset of one input channel;
	// its synapses are syns[start[col]:start[col+1]].
	start := make([]int, cols+1)
	for f := 0; f < outC; f++ {
		for col := 0; col < cols; col++ {
			if live(f*cols + col) {
				start[col+1]++
			}
		}
	}
	nTaps := 0
	for col := 0; col < cols; col++ {
		if start[col+1] != 0 {
			nTaps++
		}
		start[col+1] += start[col]
	}
	t := &ConvTable[W]{
		stride: stride, pad: pad,
		perChannel: make([][]convTap[W], inC),
		syns:       make([]convEntry[W], start[cols]),
		src:        make([]int32, start[cols]),
	}
	next := append([]int(nil), start[:cols]...)
	rank := int32(0)
	for f := 0; f < outC; f++ {
		for col := 0; col < cols; col++ {
			if i := f*cols + col; live(i) {
				t.syns[next[col]] = convEntry[W]{int32(f), w[i]}
				t.src[next[col]] = rank
				rank++
				next[col]++
			}
		}
	}
	taps := make([]convTap[W], 0, nTaps)
	for ci := range t.perChannel {
		first := len(taps)
		for off := 0; off < kk; off++ {
			lo, hi := start[ci*kk+off], start[ci*kk+off+1]
			if lo == hi {
				continue
			}
			ki, kj := off/k, off%k
			taps = append(taps, convTap[W]{
				qi: int32(ki / stride), ri: int32(ki % stride),
				qj: int32(kj / stride), rj: int32(kj % stride),
				at:  int32(lo),
				syn: t.syns[lo:hi:hi],
			})
		}
		t.perChannel[ci] = taps[first:len(taps):len(taps)]
	}
	return t
}

// Gather refreshes every synapse's weight from vals, the live entries'
// values in source order (the Val of the mask-keyed CSR encoding), keeping
// the pattern: the O(nnz) re-gather that follows optimizer steps.
func (t *ConvTable[W]) Gather(vals []W) {
	for i, s := range t.src {
		t.syns[i].w = vals[s]
	}
}

// Scatter is the forward synapse walk: it accumulates each (event × synapse)
// contribution of one timestep into out, [outC, oh·ow] over an input of
// h×w positions per channel, and returns the accumulate count (SynOps). An
// event contributes W(ev.Val·inv) to each of its synapses. inv is 1 where
// the contribution is the event value itself (float weights, or the spike's
// 1 on integer levels); on a grid-fed integer stage it is 1/scale, which
// recovers the event's integer level exactly.
//
// An event at (y, x) reaches output (oy, ox) through offset (ki, kj) when
// y + pad = oy·stride + ki, and likewise for x. With y + pad = yq·stride + yr
// and ki = qi·stride + ri, that holds exactly when yr == ri, and then
// oy = yq − qi. So the walk divides by the stride once per event, checks
// each tap's residues and bounds, and adds into one output position per
// (event, tap).
//
// Each output receives at most one term per event (the offset is fixed by
// the event and output positions), so events in ascending index order give
// every output its terms in dense (ci, ki, kj) order: the im2col GEMM's
// order, minus its exact-zero terms.
func (t *ConvTable[W]) Scatter(out []W, events []Event, inv float32, h, w, oh, ow int) int64 {
	stride, pad := t.stride, t.pad
	p := oh * ow
	var ops int64
	for _, ev := range events {
		v := W(ev.Val * inv)
		idx := int(ev.Idx)
		ci := idx / (h * w)
		rem := idx % (h * w)
		y, x := rem/w+pad, rem%w+pad
		yq, yr := int32(y/stride), int32(y%stride)
		xq, xr := int32(x/stride), int32(x%stride)
		taps := t.perChannel[ci]
		for i := range taps {
			tp := &taps[i]
			oy, ox := yq-tp.qi, xq-tp.qj
			// A negative oy or ox converts to a uint above any bound.
			if tp.ri != yr || tp.rj != xr || uint(oy) >= uint(oh) || uint(ox) >= uint(ow) {
				continue
			}
			pos := int(oy)*ow + int(ox)
			for _, en := range tp.syn {
				out[int(en.f)*p+pos] += en.w * v
			}
			ops += int64(len(tp.syn))
		}
	}
	return ops
}

// ScatterGrad is the weight-gradient walk over the same taps: for one
// timestep of a binary input, given as its ascending flat spike indices, it
// adds dy[f·oh·ow + pos] into vals[src] once for each (spike, offset, live
// synapse) that reaches output pos, where src is the synapse's source index.
// That is dW = dy·colᵀ at the live entries, in CSR order, with col the
// im2col matrix of the spikes. Each live weight receives its terms in
// ascending output position, the dense kernel's order minus its exact-zero
// terms.
func (t *ConvTable[W]) ScatterGrad(vals []float32, spikes []int32, dy []float32, h, w, oh, ow int) {
	stride, pad := t.stride, t.pad
	p := oh * ow
	for _, s := range spikes {
		idx := int(s)
		ci := idx / (h * w)
		rem := idx % (h * w)
		y, x := rem/w+pad, rem%w+pad
		yq, yr := int32(y/stride), int32(y%stride)
		xq, xr := int32(x/stride), int32(x%stride)
		taps := t.perChannel[ci]
		for i := range taps {
			tp := &taps[i]
			oy, ox := yq-tp.qi, xq-tp.qj
			if tp.ri != yr || tp.rj != xr || uint(oy) >= uint(oh) || uint(ox) >= uint(ow) {
				continue
			}
			pos := int(oy)*ow + int(ox)
			src := t.src[tp.at : int(tp.at)+len(tp.syn)]
			for j, en := range tp.syn {
				vals[src[j]] += dy[int(en.f)*p+pos]
			}
		}
	}
}
