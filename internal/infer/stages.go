package infer

import (
	"math"
	"sync/atomic"
	"time"

	"ndsnn/internal/layers"
	"ndsnn/internal/snn"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// Stages are immutable compiled plans: constructors freeze the weight
// tables and folded affines, and step routes every mutable
// buffer through the request's Scratch arena (each stage owns fixed slot
// indices assigned at compile time). The only post-compile writes a stage
// performs on itself are atomics (the conv stages' last-seen output size,
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

// epilogue is the per-output tail shared by every conv and linear stage:
//
//	y = scale·(deq·acc + bias) + shift
//
// On float stages deq is 1 (1·acc = acc exactly). On integer stages deq is
// the output row's weight scale times the input grid scale, invIn is 1/input
// grid scale (0 on binary-spike inputs), and accSlot is the int32 arena slot
// of the accumulator.
type epilogue[W sparse.Weight] struct {
	deq          []float32 // per output
	bias         []float32 // layer bias (may be nil)
	scale, shift []float32 // folded BN (may be nil)
	invIn        float32
	accSlot      int
}

// accumulator returns the buffer the stage's scatter accumulates into and
// the scatter's inv. A float stage accumulates in place, in its zeroed
// output buffer, and takes every event value as it is. An integer stage
// accumulates in its int32 arena slot, once gridEvents has checked the input
// events against the compiled grid (kind names the stage in its panic).
func (ep *epilogue[W]) accumulator(sc *Scratch, out []float32, events []sparse.Event, kind string) (acc []W, inv float32) {
	switch a := any(&acc).(type) {
	case *[]float32:
		*a = out
		return acc, 1
	case *[]int32:
		*a = sc.int32Buf(ep.accSlot, len(out))
	}
	return acc, gridEvents(events, ep.invIn, kind)
}

// apply writes the epilogue of every output — len(deq) rows of p positions
// (p = 1 on linear stages) — into out. On traced passes the integer stages
// time it as their requant segment.
func (ep *epilogue[W]) apply(sc *Scratch, out *act, acc []W, p int) {
	_, integer := any(W(0)).(int32)
	timed := sc.timeRequant && integer
	var rqStart time.Time
	if timed {
		rqStart = time.Now()
	}
	for f, d := range ep.deq {
		var b float32
		if ep.bias != nil {
			b = ep.bias[f]
		}
		arow := acc[f*p : (f+1)*p]
		row := out.data[f*p : (f+1)*p]
		if ep.scale != nil {
			scl, sh := ep.scale[f], ep.shift[f]
			for i := range row {
				row[i] = scl*(d*float32(arow[i])+b) + sh
			}
		} else if b != 0 {
			for i := range row {
				row[i] = d*float32(arow[i]) + b
			}
		} else {
			for i := range row {
				row[i] = d * float32(arow[i])
			}
		}
	}
	if timed {
		sc.requantNS += time.Since(rqStart).Nanoseconds()
	}
}

// convStage is an event-driven convolution over float weights or quantized
// levels, with its bias and folded BN in the epilogue.
type convStage[W sparse.Weight] struct {
	epilogue[W]
	inC, outC, k, stride, pad int
	table                     *sparse.ConvTable[W]
	slot                      int
	outHW                     atomic.Int64 // last seen output positions (for dense MACs)
}

// newConvStage builds the conv stage of l over w, the dense row-major
// [outC, inC·k·k] weight matrix, whose non-zeros make its synapse table.
func newConvStage[W sparse.Weight](l *layers.Conv2d, w []W, ep epilogue[W], c *compiler) *convStage[W] {
	return &convStage[W]{
		epilogue: ep,
		inC:      l.InC, outC: l.OutC, k: l.K, stride: l.Stride, pad: l.Pad,
		table: sparse.NewConvTable(w, nil, l.OutC, l.InC, l.K, l.Stride, l.Pad),
		slot:  c.actSlot(),
	}
}

// denseMACs is the dense-implementation MAC bound — outC·inC·k²·outHW — from
// the last seen output size.
func (s *convStage[W]) denseMACs() int64 {
	return int64(s.outC*s.inC*s.k*s.k) * s.outHW.Load()
}

func (s *convStage[W]) step(sc *Scratch, in *act) *act {
	in.refreshEvents()
	h, w := in.shape[1], in.shape[2]
	oh := tensor.ConvOutSize(h, s.k, s.stride, s.pad)
	ow := tensor.ConvOutSize(w, s.k, s.stride, s.pad)
	// Store only on a change: every request reads this stage's cache line.
	if p := int64(oh * ow); s.outHW.Load() != p {
		s.outHW.Store(p)
	}
	out := sc.actBuf3(s.slot, s.outC, oh, ow)
	acc, inv := s.accumulator(sc, out.data, in.events, "conv")
	sc.synOps += s.table.Scatter(acc, in.events, inv, h, w, oh, ow)
	s.apply(sc, out, acc, oh*ow)
	return out
}

// linearEntry is one active synapse of an event-driven linear layer,
// grouped by presynaptic index.
type linearEntry[W sparse.Weight] struct {
	out int32
	w   W
}

// linearScatter is sparse.ConvTable.Scatter for the linear stages: each event adds
// W(ev.Val·inv)·w into every output its input index reaches.
func linearScatter[W sparse.Weight](out []W, events []sparse.Event, perInput [][]linearEntry[W], inv float32) int64 {
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

// linearStage is an event-driven fully-connected layer over float weights or
// quantized levels, with its bias and folded BN in the epilogue.
type linearStage[W sparse.Weight] struct {
	epilogue[W]
	in, out  int
	perInput [][]linearEntry[W]
	slot     int
}

// newLinearStage builds the synapse table from w, the dense row-major
// [out, in] weight matrix: its non-zeros grouped by input, in output order.
func newLinearStage[W sparse.Weight](l *layers.Linear, w []W, ep epilogue[W], c *compiler) *linearStage[W] {
	s := &linearStage[W]{epilogue: ep, in: l.In, out: l.Out, perInput: make([][]linearEntry[W], l.In), slot: c.actSlot()}
	for o := 0; o < l.Out; o++ {
		for i, v := range w[o*l.In : (o+1)*l.In] {
			if v != 0 {
				s.perInput[i] = append(s.perInput[i], linearEntry[W]{int32(o), v})
			}
		}
	}
	return s
}

func (s *linearStage[W]) denseMACs() int64 { return int64(s.in) * int64(s.out) }

func (s *linearStage[W]) step(sc *Scratch, in *act) *act {
	in.refreshEvents()
	out := sc.actBuf1(s.slot, s.out)
	acc, inv := s.accumulator(sc, out.data, in.events, "linear")
	sc.synOps += linearScatter(acc, in.events, s.perInput, inv)
	s.apply(sc, out, acc, 1)
	return out
}

// lifStage replicates the training LIF dynamics (soft reset). The membrane
// state lives in the request's arena (stateSlot), so concurrent requests
// carry independent temporal state.
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
		v := cfg.Alpha*mv[i] + x - cfg.Threshold*oPrev[i]
		mv[i] = v
		var o float32
		if v >= cfg.Threshold {
			o = 1
		}
		out.data[i] = o
		oPrev[i] = o
	}
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
	return out
}

// flattenStage reshapes to a vector. Its slot only ever aliases the
// incoming buffer — no copy, no allocation.
type flattenStage struct {
	slot int
}

func (s *flattenStage) step(sc *Scratch, in *act) *act {
	a := &sc.acts[s.slot]
	a.shape = append(a.shape[:0], len(in.data))
	a.data = in.data
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
	return s.out.step(sc, sum)
}
