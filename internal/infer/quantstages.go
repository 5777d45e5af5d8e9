package infer

import (
	"fmt"
	"math"

	"ndsnn/internal/layers"
	"ndsnn/internal/quant"
	"ndsnn/internal/snn"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// Integer stages: the convStage[int32] and linearStage[int32] instantiations
// (stages.go). Weights are QCSR levels (per-output-channel power-of-two
// scales), held as int32 in the same synapse tables the float stages use,
// and events accumulate in int32 through the same walks (ConvTable.Scatter,
// linearScatter); the accumulator leaves integer exactly once per output
// element and timestep, at the requantization affine
//
//	y = bnScale·(s·acc + bias) + bnShift  =  M·acc + C
//
// with M = bnScale·s the composed requantization multiplier (a shift of
// bnScale, since s is a power of two) and C = bnScale·bias + bnShift. The
// affine is evaluated in the factored form — the float stages' epilogue with
// deq = s — so the integer engine is bit-identical to the float engine
// running on the dequantized weights: s is a power of two, making every
// dequantized level s·q and every partial sum s·Σq exact in float32.
//
// An integer stage accepts either grid dtype (dtype.go). Fed binary spikes
// (invIn == 0) every event contributes 1, so the accumulate is a sum of
// levels; fed a QuantInt edge each event contributes its integer level,
// recovered with one exact multiply (1/scale is a power of two), and the
// accumulate is level×level products — the quantized analog-input layers of
// the fully-integer pipeline. Either way deq folds the input grid's scale
// (po2 × po2 is exact), so the stage remains bit-identical to the float
// stage running on dequantized weights and grid inputs.

// quantizedWeight records which trained parameter an integer stage
// quantized, and to what.
type quantizedWeight struct {
	p *layers.Param
	q *quant.QCSR
}

// quantizeWeight encodes a parameter's weight matrix (value-keyed: exact
// zeros — masked-out weights — are not stored) and quantizes it onto the
// per-channel QCSR grid, registering the pair on the engine. It returns the
// levels as a dense row-major int32 matrix of the parameter's [rows, cols]
// shape (a level that rounds to zero is a dead synapse, left out of the
// stage's table) and the integer epilogue for the current input edge. It
// fails, naming the stage (kind is its label), when the stage's int32
// accumulator could overflow: one output's accumulator sums at most one
// level × input-level product per synapse of its row, so Σ|level| times the
// input edge's maxLevel bounds it.
func (c *compiler) quantizeWeight(p *layers.Param, kind string) ([]int32, epilogue[int32], error) {
	rows := p.W.Dim(0)
	cols := p.W.Size() / rows
	q, err := quant.QuantizeCSR(sparse.EncodeCSR(p.W.Reshape(rows, cols)), c.cfg.WeightBits, true)
	if err != nil {
		return nil, epilogue[int32]{}, err
	}
	e := c.eng
	e.qweights = append(e.qweights, quantizedWeight{p: p, q: q})
	st := e.quant
	st.QuantizedStages++
	st.StoredSynapses += int64(q.NNZ())
	ep := epilogue[int32]{deq: make([]float32, rows), accSlot: c.intSlot()}
	if c.dt.Kind == QuantInt {
		ep.invIn = 1 / c.dt.Scale
	}
	levels := make([]int32, rows*cols)
	maxIn := c.dt.maxLevel()
	for r := 0; r < rows; r++ {
		ep.deq[r] = q.RowScale(r) * c.dt.gridScale()
		var sum int64
		for p := q.RowPtr[r]; p < q.RowPtr[r+1]; p++ {
			lv := q.Level(int(p))
			if lv == 0 {
				st.ZeroQuantized++
			}
			levels[r*cols+int(q.ColIdx[p])] = lv
			sum += max(int64(lv), -int64(lv))
		}
		if sum*maxIn > math.MaxInt32 {
			return nil, epilogue[int32]{}, fmt.Errorf("infer: stage %s can overflow its int32 accumulator: output %d sums up to %d (Σ|level| %d × max input level %d), above 2^31−1; lower WeightBits or ActivationBits",
				c.stageName(kind), r, sum*maxIn, sum, maxIn)
		}
	}
	st.PackedValueBytes += q.PackedValueBytes()
	st.FloatValueBytes += 4 * int64(q.NNZ())
	return levels, ep, nil
}

// gridEvents validates an integer stage's whole input event list against
// its compiled input grid before the scatter touches it, and returns the
// scatter's inv: 1 on a spike input (invIn == 0), where every event must
// be exactly 1, and invIn on a QuantInt input, where every event must be
// an exact level. kind names the stage in the panic.
func gridEvents(events []sparse.Event, invIn float32, kind string) float32 {
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
