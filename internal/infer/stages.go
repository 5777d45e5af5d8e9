package infer

import (
	"math"
	"sync/atomic"

	"ndsnn/internal/layers"
	"ndsnn/internal/snn"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// Stages are immutable compiled plans: constructors freeze the weight
// tables, folded affines and band layouts, and step routes every mutable
// buffer through the request's Scratch arena (each stage owns fixed slot
// indices assigned at compile time). The only post-compile writes a stage
// performs on itself are atomics (the conv stages' last-seen spatial size,
// recorded for the dense-MAC bound), so one stage instance serves any
// number of concurrent requests.

// bnFold extracts the eval-mode affine (scale, shift) of a BatchNorm:
// y = scale·x + shift with scale = γ/√(σ²+ε), shift = β − scale·μ.
func bnFold(bn *layers.BatchNorm) (scale, shift []float32) {
	scale = make([]float32, bn.C)
	shift = make([]float32, bn.C)
	for c := 0; c < bn.C; c++ {
		s := bn.Gamma.W.Data[c] / float32(math.Sqrt(float64(bn.RunningVar.Data[c]+bn.Eps)))
		scale[c] = s
		shift[c] = bn.Beta.W.Data[c] - s*bn.RunningMean.Data[c]
	}
	return scale, shift
}

// convEntry is one active synapse of an event-driven convolution, grouped
// by presynaptic channel.
type convEntry struct {
	f      int32 // output channel
	ki, kj int32 // kernel offsets
	w      float32
}

// convStage is an event-driven convolution with optional folded BN. When
// compiled with sparse.Workers > 1 the synapse table is pre-bucketed into
// that many output-channel bands (balanced by synapse count; see
// bandEntriesByChannel) and step scatters every band concurrently on the
// shared worker pool.
type convStage struct {
	inC, outC, k, stride, pad int
	perChannel                [][]convEntry
	bands                     [][][]convEntry // [band][channel]entries; nil when serial
	bias                      []float32       // conv bias (may be nil)
	scale, shift              []float32       // folded BN (may be nil)
	activeSynapses            int64
	slot, opsSlot             int
	inHW                      atomic.Int64 // last seen spatial size (for dense MACs)
}

func newConvStage(l *layers.Conv2d, bn *layers.BatchNorm, c *compiler) *convStage {
	s := &convStage{
		inC: l.InC, outC: l.OutC, k: l.K, stride: l.Stride, pad: l.Pad,
		perChannel: make([][]convEntry, l.InC),
		slot:       c.actSlot(), opsSlot: c.opsSlot(),
	}
	w := l.Weight.W
	for f := 0; f < l.OutC; f++ {
		for ci := 0; ci < l.InC; ci++ {
			for ki := 0; ki < l.K; ki++ {
				for kj := 0; kj < l.K; kj++ {
					v := w.At(f, ci, ki, kj)
					if v != 0 {
						s.perChannel[ci] = append(s.perChannel[ci], convEntry{int32(f), int32(ki), int32(kj), v})
						s.activeSynapses++
					}
				}
			}
		}
	}
	s.bands = bandEntriesByChannel(s.perChannel, l.OutC, sparse.EffectiveWorkers(l.OutC),
		func(en convEntry) int32 { return en.f })
	if l.Bias != nil {
		s.bias = append([]float32(nil), l.Bias.W.Data...)
	}
	if bn != nil {
		s.scale, s.shift = bnFold(bn)
	}
	return s
}

// bandEntriesByChannel splits a per-channel synapse table (entries ascending
// in output unit fOf(entry) within each channel, as the compile loops
// produce them) into `workers` output-unit bands balanced by synapse count —
// the shared banding of the float and quantized conv stages. Bands write
// disjoint output rows, so they scatter concurrently without
// synchronization, and each output element still receives its contributions
// in the serial event order: banded stepping is bit-identical to serial
// stepping. It returns nil for workers <= 1 — the serial layout. Each
// band's per-channel slices alias the original table (contiguous f-runs),
// so banding costs no synapse copies.
func bandEntriesByChannel[E any](perChannel [][]E, outC, workers int, fOf func(E) int32) [][][]E {
	if workers <= 1 {
		return nil
	}
	perF := make([]int64, outC+1)
	var total int64
	for _, entries := range perChannel {
		total += int64(len(entries))
		for _, en := range entries {
			perF[fOf(en)+1]++
		}
	}
	if total == 0 {
		return nil
	}
	for f := 0; f < outC; f++ {
		perF[f+1] += perF[f]
	}
	bands := make([][][]E, 0, workers)
	f := 0
	for b := 0; b < workers; b++ {
		target := total * int64(b+1) / int64(workers)
		fHi := f
		for fHi < outC && (b == workers-1 || perF[fHi] < target) {
			fHi++
		}
		if b == workers-1 {
			fHi = outC
		}
		band := make([][]E, len(perChannel))
		for c, entries := range perChannel {
			lo := 0
			for lo < len(entries) && int(fOf(entries[lo])) < f {
				lo++
			}
			hi := lo
			for hi < len(entries) && int(fOf(entries[hi])) < fHi {
				hi++
			}
			band[c] = entries[lo:hi]
		}
		bands = append(bands, band)
		f = fHi
	}
	return bands
}

func (s *convStage) denseMACs() int64 {
	return convDenseMACs(int(s.inHW.Load()), s.outC, s.inC, s.k, s.stride, s.pad)
}

// convDenseMACs is the dense-implementation MAC bound of a convolution —
// outC·inC·k²·outHW — from the last seen (square) spatial size, shared by
// the float and integer conv stages.
func convDenseMACs(inHW, outC, inC, k, stride, pad int) int64 {
	if inHW == 0 {
		return 0
	}
	inH := int(math.Sqrt(float64(inHW)))
	oh := tensor.ConvOutSize(inH, k, stride, pad)
	return int64(outC*inC*k*k) * int64(oh*oh)
}

func (s *convStage) step(sc *Scratch, in *act) *act {
	h, w := in.shape[1], in.shape[2]
	s.inHW.Store(int64(h * w))
	oh := tensor.ConvOutSize(h, s.k, s.stride, s.pad)
	ow := tensor.ConvOutSize(w, s.k, s.stride, s.pad)
	out := sc.actBuf3(s.slot, s.outC, oh, ow)
	p := oh * ow
	var ops int64
	if s.bands != nil {
		// Parallel scatter: every band streams the same events in the same
		// order into its private output-channel rows — bit-identical to the
		// serial walk below, at any GOMAXPROCS.
		bandOps := sc.opsBuf(s.opsSlot, len(s.bands))
		tensor.ParallelStrips(len(s.bands), func(b int) {
			bandOps[b] = convScatterEvents(out.data, in.events, s.bands[b],
				h, w, oh, ow, p, s.stride, s.pad)
		})
		for _, n := range bandOps {
			ops += n
		}
	} else {
		ops = convScatterEvents(out.data, in.events, s.perChannel, h, w, oh, ow, p, s.stride, s.pad)
	}
	sc.synOps += ops
	for f := 0; f < s.outC; f++ {
		var b float32
		if s.bias != nil {
			b = s.bias[f]
		}
		row := out.data[f*p : (f+1)*p]
		if s.scale != nil {
			scl, sh := s.scale[f], s.shift[f]
			for i := range row {
				row[i] = scl*(row[i]+b) + sh
			}
		} else if b != 0 {
			for i := range row {
				row[i] += b
			}
		}
	}
	out.refreshEvents()
	return out
}

// convScatterEvents accumulates every (event × synapse) contribution of one
// timestep into the output buffer — the shared inner walk of the serial and
// banded float conv stage. Returns the accumulate count (SynOps).
func convScatterEvents(out []float32, events []Event, perChannel [][]convEntry,
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

// linearEntry is one active synapse of an event-driven linear layer,
// grouped by presynaptic index.
type linearEntry struct {
	out int32
	w   float32
}

// linearStage is an event-driven fully-connected layer with folded BN.
type linearStage struct {
	in, out        int
	perInput       [][]linearEntry
	bias           []float32
	scale, shift   []float32
	activeSynapses int64
	slot           int
}

func newLinearStage(l *layers.Linear, bn *layers.BatchNorm, c *compiler) *linearStage {
	s := &linearStage{in: l.In, out: l.Out, perInput: make([][]linearEntry, l.In), slot: c.actSlot()}
	for o := 0; o < l.Out; o++ {
		for i := 0; i < l.In; i++ {
			v := l.Weight.W.Data[o*l.In+i]
			if v != 0 {
				s.perInput[i] = append(s.perInput[i], linearEntry{int32(o), v})
				s.activeSynapses++
			}
		}
	}
	if l.Bias != nil {
		s.bias = append([]float32(nil), l.Bias.W.Data...)
	}
	if bn != nil {
		s.scale, s.shift = bnFold(bn)
	}
	return s
}

func (s *linearStage) denseMACs() int64 { return int64(s.in) * int64(s.out) }

func (s *linearStage) step(sc *Scratch, in *act) *act {
	out := sc.actBuf1(s.slot, s.out)
	var ops int64
	for _, ev := range in.events {
		for _, en := range s.perInput[ev.Idx] {
			out.data[en.out] += en.w * ev.Val
			ops++
		}
	}
	sc.synOps += ops
	for o := range out.data {
		var b float32
		if s.bias != nil {
			b = s.bias[o]
		}
		if s.scale != nil {
			out.data[o] = s.scale[o]*(out.data[o]+b) + s.shift[o]
		} else {
			out.data[o] += b
		}
	}
	out.refreshEvents()
	return out
}

// affineStage applies a standalone BN's eval affine.
type affineStage struct {
	scale, shift []float32
	slot         int
}

func newAffineStage(bn *layers.BatchNorm, c *compiler) *affineStage {
	s := &affineStage{slot: c.actSlot()}
	s.scale, s.shift = bnFold(bn)
	return s
}

func (s *affineStage) step(sc *Scratch, in *act) *act {
	out := sc.actBufShape(s.slot, in.shape)
	chans := len(s.scale)
	per := len(in.data) / chans
	for c := 0; c < chans; c++ {
		for i := 0; i < per; i++ {
			out.data[c*per+i] = s.scale[c]*in.data[c*per+i] + s.shift[c]
		}
	}
	out.refreshEvents()
	return out
}

// lifStage replicates the training LIF dynamics (soft or hard reset). The
// membrane state lives in the request's arena (stateSlot), so concurrent
// requests carry independent temporal state.
type lifStage struct {
	cfg             snn.NeuronConfig
	slot, stateSlot int
}

func (s *lifStage) step(sc *Scratch, in *act) *act {
	n := len(in.data)
	mv, oPrev := sc.lifBuf(s.stateSlot, n)
	out := sc.actBufShape(s.slot, in.shape)
	cfg := s.cfg
	for i, x := range in.data {
		var v float32
		if cfg.HardReset {
			v = cfg.Alpha*mv[i]*(1-oPrev[i]) + x
		} else {
			v = cfg.Alpha*mv[i] + x - cfg.Threshold*oPrev[i]
		}
		mv[i] = v
		if v >= cfg.Threshold {
			out.data[i] = 1
		}
	}
	copy(oPrev, out.data)
	out.refreshEvents()
	return out
}

// maxPoolStage pools densely (cheap relative to synaptic work), writing
// into its arena slot.
type maxPoolStage struct {
	k, stride int
	slot      int
}

func (s *maxPoolStage) step(sc *Scratch, in *act) *act {
	c, h, w := in.shape[0], in.shape[1], in.shape[2]
	oh := tensor.ConvOutSize(h, s.k, s.stride, 0)
	ow := tensor.ConvOutSize(w, s.k, s.stride, 0)
	out := sc.actBuf3(s.slot, c, oh, ow)
	for p := 0; p < c; p++ {
		inBase := p * h * w
		outBase := p * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy0, ix0 := oy*s.stride, ox*s.stride
				best := in.data[inBase+iy0*w+ix0]
				for ki := 0; ki < s.k; ki++ {
					iy := iy0 + ki
					if iy >= h {
						break
					}
					rowBase := inBase + iy*w
					for kj := 0; kj < s.k; kj++ {
						ix := ix0 + kj
						if ix >= w {
							break
						}
						if v := in.data[rowBase+ix]; v > best {
							best = v
						}
					}
				}
				out.data[outBase+oy*ow+ox] = best
			}
		}
	}
	out.refreshEvents()
	return out
}

// avgPoolStage pools densely; outputs are graded events.
type avgPoolStage struct {
	k, stride int
	slot      int
}

func (s *avgPoolStage) step(sc *Scratch, in *act) *act {
	c, h, w := in.shape[0], in.shape[1], in.shape[2]
	oh := tensor.ConvOutSize(h, s.k, s.stride, 0)
	ow := tensor.ConvOutSize(w, s.k, s.stride, 0)
	out := sc.actBuf3(s.slot, c, oh, ow)
	for p := 0; p < c; p++ {
		inBase := p * h * w
		outBase := p * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy0, ix0 := oy*s.stride, ox*s.stride
				var sum float32
				count := 0
				for ki := 0; ki < s.k; ki++ {
					iy := iy0 + ki
					if iy >= h {
						break
					}
					rowBase := inBase + iy*w
					for kj := 0; kj < s.k; kj++ {
						ix := ix0 + kj
						if ix >= w {
							break
						}
						sum += in.data[rowBase+ix]
						count++
					}
				}
				out.data[outBase+oy*ow+ox] = sum / float32(count)
			}
		}
	}
	out.refreshEvents()
	return out
}

// flattenStage reshapes to a vector. Its slot only ever aliases the
// incoming buffer and event list — no copy, no allocation.
type flattenStage struct {
	slot int
}

func (s *flattenStage) step(sc *Scratch, in *act) *act {
	a := &sc.acts[s.slot]
	a.shape = append(a.shape[:0], len(in.data))
	a.data = in.data
	a.events = in.events
	return a
}

// residualStage runs both paths and the output neuron.
type residualStage struct {
	main     []stage
	shortcut []stage
	out      *lifStage
	sumSlot  int
}

func (s *residualStage) step(sc *Scratch, in *act) *act {
	cur := in
	for _, st := range s.main {
		cur = st.step(sc, cur)
	}
	short := in
	for _, st := range s.shortcut {
		short = st.step(sc, short)
	}
	sum := sc.actBufShape(s.sumSlot, cur.shape)
	copy(sum.data, cur.data)
	for i, v := range short.data {
		sum.data[i] += v
	}
	sum.refreshEvents()
	return s.out.step(sc, sum)
}
