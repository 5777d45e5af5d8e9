package infer

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"ndsnn/internal/layers"
	"ndsnn/internal/quant"
	"ndsnn/internal/snn"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// Quantized stages: the integer twins of convStage/linearStage. Weights are
// QCSR levels (per-output-channel power-of-two scales), held as int32 in
// the same synapse tables the float stages use, and events accumulate in
// int32 through the same walks (convScatter, linearScatter); the
// accumulator leaves integer exactly once per output element and timestep,
// at the requantization affine
//
//	y = bnScale·(s·acc + bias) + bnShift  =  M·acc + C
//
// with M = bnScale·s the composed requantization multiplier (a shift of
// bnScale, since s is a power of two) and C = bnScale·bias + bnShift. The
// affine is evaluated in the factored form — the same float operation order
// as the float stages — so the integer engine is bit-identical to the float
// engine running on the dequantized weights: s is a power of two, making
// every dequantized level s·q and every partial sum s·Σq exact in float32.
// Like their float twins the integer stages are immutable plans: the int32
// accumulator lives in an arena slot.

// quantizedWeight records which trained parameter an integer stage
// quantized, and to what.
type quantizedWeight struct {
	p *layers.Param
	q *quant.QCSR
}

// quantizeWeight encodes a parameter's weight matrix (value-keyed: exact
// zeros — masked-out weights — are not stored) and quantizes it onto the
// per-channel QCSR grid, registering the pair on the engine. It fails,
// naming the stage (kind is its label), when the stage's int32 accumulator
// could overflow: one output's accumulator sums at most one level ×
// input-level product per synapse of its row, so Σ|level| times the input
// edge's maxLevel bounds it.
func (c *compiler) quantizeWeight(p *layers.Param, kind string) (*quant.QCSR, error) {
	rows := p.W.Dim(0)
	w2d := p.W.Reshape(rows, p.W.Size()/rows)
	q, err := quant.QuantizeCSR(sparse.EncodeCSR(w2d), c.cfg.WeightBits, true)
	if err != nil {
		return nil, err
	}
	e := c.eng
	e.qweights = append(e.qweights, quantizedWeight{p: p, q: q})
	st := e.quant
	st.QuantizedStages++
	st.StoredSynapses += int64(q.NNZ())
	maxIn := c.dt.maxLevel()
	for r := 0; r < q.Rows; r++ {
		var sum int64
		for p := q.RowPtr[r]; p < q.RowPtr[r+1]; p++ {
			lv := int64(q.Level(int(p)))
			if lv == 0 {
				st.ZeroQuantized++
			}
			sum += max(lv, -lv)
		}
		if sum*maxIn > math.MaxInt32 {
			return nil, fmt.Errorf("infer: stage %s can overflow its int32 accumulator: output %d sums up to %d (Σ|level| %d × max input level %d), above 2^31−1; lower WeightBits or ActivationBits",
				c.stageName(kind), r, sum*maxIn, sum, maxIn)
		}
	}
	st.PackedValueBytes += q.PackedValueBytes()
	st.FloatValueBytes += 4 * int64(q.NNZ())
	return q, nil
}

// qconvStage is the integer event-driven convolution with optional folded
// BN. Geometry and post-accumulation op order mirror convStage exactly, and
// it runs the same convScatter over int32 levels.
//
// The stage accepts either grid dtype (dtype.go). Fed binary spikes
// (invIn == 0) every event contributes 1, so the accumulate is a sum of
// levels; fed a QuantInt edge each event contributes its integer level,
// recovered with one exact multiply (1/scale is a power of two), and the
// accumulate is level×level products — the quantized analog-input
// convolution of the fully-integer pipeline. Either way the requantization
// multiplier deq folds the input grid's scale (po2 × po2 is exact), so the
// stage remains bit-identical to the float stage running on dequantized
// weights and grid inputs.
type qconvStage struct {
	inC, outC, k, stride, pad int
	perChannel                [][]convEntry[int32]
	deq                       []float32 // per-output-channel dequantization scale (× input grid scale)
	invIn                     float32   // 1/input grid scale; 0 on binary-spike inputs
	bias                      []float32 // conv bias (may be nil)
	scale, shift              []float32 // folded BN (may be nil)
	slot, accSlot             int
	inHW                      atomic.Int64
}

func newQConvStage(l *layers.Conv2d, bn *layers.BatchNorm, c *compiler) (*qconvStage, error) {
	qc, err := c.quantizeWeight(l.Weight, "qconv")
	if err != nil {
		return nil, err
	}
	s := &qconvStage{
		inC: l.InC, outC: l.OutC, k: l.K, stride: l.Stride, pad: l.Pad,
		perChannel: make([][]convEntry[int32], l.InC),
		deq:        make([]float32, l.OutC),
		slot:       c.actSlot(), accSlot: c.intSlot(),
	}
	inScale := float32(1)
	if c.dt.Kind == QuantInt {
		s.invIn = 1 / c.dt.Scale
		inScale = c.dt.Scale
	}
	kk := l.K * l.K
	for f := 0; f < l.OutC; f++ {
		s.deq[f] = qc.RowScale(f) * inScale
		for p := qc.RowPtr[f]; p < qc.RowPtr[f+1]; p++ {
			lv := qc.Level(int(p))
			if lv == 0 {
				continue // dead synapse: rounded to zero at this precision
			}
			col := int(qc.ColIdx[p])
			ci := col / kk
			ki := (col % kk) / l.K
			kj := col % l.K
			s.perChannel[ci] = append(s.perChannel[ci], convEntry[int32]{int32(f), int32(ki), int32(kj), lv})
		}
	}
	if l.Bias != nil {
		s.bias = append([]float32(nil), l.Bias.W.Data...)
	}
	if bn != nil {
		s.scale, s.shift = bnFold(bn)
	}
	return s, nil
}

func (s *qconvStage) denseMACs() int64 {
	return convDenseMACs(int(s.inHW.Load()), s.outC, s.inC, s.k, s.stride, s.pad)
}

func (s *qconvStage) step(sc *Scratch, in *act) *act {
	h, w := in.shape[1], in.shape[2]
	s.inHW.Store(int64(h * w))
	oh := tensor.ConvOutSize(h, s.k, s.stride, s.pad)
	ow := tensor.ConvOutSize(w, s.k, s.stride, s.pad)
	out := sc.actBuf3(s.slot, s.outC, oh, ow)
	p := oh * ow
	acc := sc.int32Buf(s.accSlot, s.outC*p)
	inv := gridEvents(in.events, s.invIn, "conv")
	sc.synOps += convScatter(acc, in.events, s.perChannel, inv, h, w, oh, ow, s.stride, s.pad)
	var rqStart time.Time
	if sc.timeRequant {
		rqStart = time.Now()
	}
	for f := 0; f < s.outC; f++ {
		d := s.deq[f]
		var b float32
		if s.bias != nil {
			b = s.bias[f]
		}
		arow := acc[f*p : (f+1)*p]
		row := out.data[f*p : (f+1)*p]
		if s.scale != nil {
			scl, sh := s.scale[f], s.shift[f]
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
	if sc.timeRequant {
		sc.requantNS += time.Since(rqStart).Nanoseconds()
	}
	out.refreshEvents()
	return out
}

// gridEvents validates an integer stage's whole input event list against
// its compiled input grid before the scatter touches it, and returns the
// scatter's inv: 1 on a spike input (invIn == 0), where every event must
// be exactly 1, and invIn on a QuantInt input, where every event must be
// an exact level. kind names the stage in the panic.
func gridEvents(events []Event, invIn float32, kind string) float32 {
	if invIn == 0 {
		for _, ev := range events {
			if ev.Val != 1 {
				panic(fmt.Sprintf("infer: quantized %s stage received non-binary event %v (compile-time dtype propagation violated)", kind, ev.Val))
			}
		}
		return 1
	}
	for _, ev := range events {
		if lv := ev.Val * invIn; float32(int32(lv)) != lv {
			panic(fmt.Sprintf("infer: quantized %s stage received off-grid event %v (compile-time dtype propagation violated)", kind, ev.Val))
		}
	}
	return invIn
}

// qlinearStage is the integer event-driven fully-connected layer: the same
// linearScatter as linearStage over int32 levels, into an int32
// accumulator. As in qconvStage, a spike event contributes 1 and a graded
// event (a QuantInt input edge — the fully-integer pipeline's avg-pool
// outputs) its recovered integer level.
type qlinearStage struct {
	in, out       int
	perInput      [][]linearEntry[int32]
	deq           []float32
	invIn         float32 // 1/input grid scale; 0 on binary-spike inputs
	bias          []float32
	scale, shift  []float32
	slot, accSlot int
}

func newQLinearStage(l *layers.Linear, bn *layers.BatchNorm, c *compiler) (*qlinearStage, error) {
	qc, err := c.quantizeWeight(l.Weight, "qlinear")
	if err != nil {
		return nil, err
	}
	s := &qlinearStage{
		in: l.In, out: l.Out, deq: make([]float32, l.Out),
		perInput: make([][]linearEntry[int32], l.In),
		slot:     c.actSlot(), accSlot: c.intSlot(),
	}
	inScale := float32(1)
	if c.dt.Kind == QuantInt {
		s.invIn = 1 / c.dt.Scale
		inScale = c.dt.Scale
	}
	for o := 0; o < l.Out; o++ {
		s.deq[o] = qc.RowScale(o) * inScale
		for p := qc.RowPtr[o]; p < qc.RowPtr[o+1]; p++ {
			if lv := qc.Level(int(p)); lv != 0 {
				s.perInput[qc.ColIdx[p]] = append(s.perInput[qc.ColIdx[p]], linearEntry[int32]{int32(o), lv})
			}
		}
	}
	if l.Bias != nil {
		s.bias = append([]float32(nil), l.Bias.W.Data...)
	}
	if bn != nil {
		s.scale, s.shift = bnFold(bn)
	}
	return s, nil
}

func (s *qlinearStage) denseMACs() int64 { return int64(s.in) * int64(s.out) }

func (s *qlinearStage) step(sc *Scratch, in *act) *act {
	out := sc.actBuf1(s.slot, s.out)
	acc := sc.int32Buf(s.accSlot, s.out)
	inv := gridEvents(in.events, s.invIn, "linear")
	sc.synOps += linearScatter(acc, in.events, s.perInput, inv)
	var rqStart time.Time
	if sc.timeRequant {
		rqStart = time.Now()
	}
	for o := range out.data {
		v := s.deq[o] * float32(acc[o])
		var b float32
		if s.bias != nil {
			b = s.bias[o]
		}
		if s.scale != nil {
			out.data[o] = s.scale[o]*(v+b) + s.shift[o]
		} else {
			out.data[o] = v + b
		}
	}
	if sc.timeRequant {
		sc.requantNS += time.Since(rqStart).Nanoseconds()
	}
	out.refreshEvents()
	return out
}

// aquantStage is the explicit requantization boundary the walker inserts
// where an analog edge must become a quantized one — today, at the network
// input when ActivationBits is set (direct encoding feeds analog pixel
// intensities). It snaps every element onto the ActGrid (round to integer
// level, clamp, dequantize — exact in float32 since the scale is a power of
// two), so everything downstream sees values that carry integer levels
// losslessly.
type aquantStage struct {
	grid quant.ActGrid
	slot int
}

func (s *aquantStage) step(sc *Scratch, in *act) *act {
	out := sc.actBufShape(s.slot, in.shape)
	for i, v := range in.data {
		out.data[i] = s.grid.Snap(v)
	}
	out.refreshEvents()
	return out
}

// intAvgPoolStage is the integer average pool of the fully-integer
// pipeline: windows sum integer levels in int32 and the single multiply by
// outScale = inScale/k² performs both the dequantization and the mean in
// one exact step (k² is a power of two, so inScale/k² is still a power of
// two and the output lands on a k²-times-finer grid — no float round-trip,
// no division). The walker only selects this stage when the input edge is
// on a grid and k² is a power of two; otherwise the float avgPoolStage
// runs. Every window covers exactly k² elements: ConvOutSize floors, so
// (oh−1)·stride+k ≤ h always — a clipped border window (which the float
// stage would average over a smaller, non-po2 count) cannot occur.
type intAvgPoolStage struct {
	k, stride int
	invIn     float32 // 1/input grid scale (exact po2)
	outScale  float32 // input grid scale / k²
	slot      int
}

func newIntAvgPoolStage(l *layers.AvgPool2d, din DType, c *compiler) *intAvgPoolStage {
	s := &intAvgPoolStage{
		k: l.K, stride: l.Stride,
		invIn:    1 / din.gridScale(),
		outScale: din.gridScale() / float32(l.K*l.K),
		slot:     c.actSlot(),
	}
	c.dt = DType{
		Kind:  QuantInt,
		Bits:  bitsForLevel(din.maxLevel() * int64(l.K*l.K)),
		Scale: s.outScale,
	}
	return s
}

func (s *intAvgPoolStage) step(sc *Scratch, in *act) *act {
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
				var sum int32
				for ki := 0; ki < s.k; ki++ {
					rowBase := inBase + (iy0+ki)*w
					for kj := 0; kj < s.k; kj++ {
						lv := in.data[rowBase+ix0+kj] * s.invIn
						lvl := int32(lv)
						if float32(lvl) != lv {
							panic(fmt.Sprintf("infer: integer avg pool received off-grid element %v (compile-time dtype propagation violated)", in.data[rowBase+ix0+kj]))
						}
						sum += lvl
					}
				}
				out.data[outBase+oy*ow+ox] = float32(sum) * s.outScale
			}
		}
	}
	out.refreshEvents()
	return out
}

// QuantizeNetWeights fake-quantizes, in place, exactly the weights that
// CompileQuantized(net, bits) computes in integer — the spike-fed
// conv/linear layers — onto the QCSR grid (per-output-channel power-of-two
// scales). The mutated float network is the dequantized reference the
// integer engine is pinned against: its eval-mode forward, and the float
// engine compiled from it, produce bit-identical outputs to the integer
// engine at ≤8 bits. The returned restore function undoes the mutation
// (and drops any cached CSR encodings built from the quantized values).
func QuantizeNetWeights(net *snn.Network, bits int) (restore func(), err error) {
	return QuantizeNetWeightsConfig(net, QuantConfig{WeightBits: bits})
}

// QuantizeNetWeightsConfig is QuantizeNetWeights for a full QuantConfig: it
// fake-quantizes exactly the weights that CompileQuantizedConfig(net, cfg)
// computes in integer — under FullInteger, every conv and linear layer. The
// dequantized-reference equivalence then extends to the fully-integer
// engine, provided the reference's inputs are snapped onto the engine's
// InputGrid first.
func QuantizeNetWeightsConfig(net *snn.Network, cfg QuantConfig) (restore func(), err error) {
	eng, err := CompileQuantizedConfig(net, cfg)
	if err != nil {
		return nil, err
	}
	snapshots := make([]*tensor.Tensor, len(eng.qweights))
	params := make([]*layers.Param, len(eng.qweights))
	for i, qw := range eng.qweights {
		snapshots[i] = qw.p.W.Clone()
		params[i] = qw.p
		dq := qw.q.Dequantize().Decode()
		qw.p.W.CopyFrom(dq.Reshape(qw.p.W.Shape()...))
		qw.p.InvalidateCSR()
	}
	return func() {
		for i, p := range params {
			p.W.CopyFrom(snapshots[i])
			p.InvalidateCSR()
		}
	}, nil
}
