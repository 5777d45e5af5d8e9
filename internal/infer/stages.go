package infer

import (
	"math"
	"sync/atomic"

	"ndsnn/internal/layers"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
)

// Stages are immutable compiled plans: constructors freeze the weight
// tables and folded affines, and step routes every mutable
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

// weight is the accumulator type of a synapse walk: float32 on the float
// stages, int32 (quantized levels) on the integer stages.
type weight interface{ float32 | int32 }

// convEntry is one active synapse of an event-driven convolution, grouped
// by presynaptic channel.
type convEntry[W weight] struct {
	f      int32 // output channel
	ki, kj int32 // kernel offsets
	w      W
}

// convStage is an event-driven convolution with optional folded BN.
type convStage struct {
	inC, outC, k, stride, pad int
	perChannel                [][]convEntry[float32]
	bias                      []float32 // conv bias (may be nil)
	scale, shift              []float32 // folded BN (may be nil)
	activeSynapses            int64
	slot                      int
	inHW                      atomic.Int64 // last seen spatial size (for dense MACs)
}

func newConvStage(l *layers.Conv2d, bn *layers.BatchNorm, c *compiler) *convStage {
	s := &convStage{
		inC: l.InC, outC: l.OutC, k: l.K, stride: l.Stride, pad: l.Pad,
		perChannel: make([][]convEntry[float32], l.InC),
		slot:       c.actSlot(),
	}
	w := l.Weight.W
	for f := 0; f < l.OutC; f++ {
		for ci := 0; ci < l.InC; ci++ {
			for ki := 0; ki < l.K; ki++ {
				for kj := 0; kj < l.K; kj++ {
					v := w.At(f, ci, ki, kj)
					if v != 0 {
						s.perChannel[ci] = append(s.perChannel[ci], convEntry[float32]{int32(f), int32(ki), int32(kj), v})
						s.activeSynapses++
					}
				}
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
	sc.synOps += convScatter(out.data, in.events, s.perChannel, 1, h, w, oh, ow, s.stride, s.pad)
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

// convScatter is the synapse walk of every conv stage: it accumulates each
// (event × synapse) contribution of one timestep into out and returns the
// accumulate count (SynOps). An event contributes W(ev.Val·inv) to each of
// its synapses. inv is 1 on the float stages, where the contribution is
// the event value itself, and on spike-fed integer stages, where it is the
// spike's 1. On a grid-fed integer stage inv is 1/scale, which recovers the
// event's integer level exactly. Events are visited in list order and each
// event's synapses in table order, so every output receives its terms in
// dense (ci, ki, kj) order.
func convScatter[W weight](out []W, events []Event, perChannel [][]convEntry[W], inv float32,
	h, w, oh, ow, stride, pad int) int64 {
	p := oh * ow
	var ops int64
	for _, ev := range events {
		v := W(ev.Val * inv)
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
			out[int(en.f)*p+oy*ow+ox] += en.w * v
			ops++
		}
	}
	return ops
}

// linearEntry is one active synapse of an event-driven linear layer,
// grouped by presynaptic index.
type linearEntry[W weight] struct {
	out int32
	w   W
}

// linearScatter is convScatter for the linear stages: each event adds
// W(ev.Val·inv)·w into every output its input index reaches.
func linearScatter[W weight](out []W, events []Event, perInput [][]linearEntry[W], inv float32) int64 {
	var ops int64
	for _, ev := range events {
		v := W(ev.Val * inv)
		for _, en := range perInput[ev.Idx] {
			out[en.out] += en.w * v
			ops++
		}
	}
	return ops
}

// linearStage is an event-driven fully-connected layer with folded BN.
type linearStage struct {
	in, out        int
	perInput       [][]linearEntry[float32]
	bias           []float32
	scale, shift   []float32
	activeSynapses int64
	slot           int
}

func newLinearStage(l *layers.Linear, bn *layers.BatchNorm, c *compiler) *linearStage {
	s := &linearStage{in: l.In, out: l.Out, perInput: make([][]linearEntry[float32], l.In), slot: c.actSlot()}
	for o := 0; o < l.Out; o++ {
		for i := 0; i < l.In; i++ {
			v := l.Weight.W.Data[o*l.In+i]
			if v != 0 {
				s.perInput[i] = append(s.perInput[i], linearEntry[float32]{int32(o), v})
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
	sc.synOps += linearScatter(out.data, in.events, s.perInput, 1)
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

// denseMACs sums the bound over both paths' conv stages.
func (s *residualStage) denseMACs() int64 {
	return denseMACs(s.main) + denseMACs(s.shortcut)
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
