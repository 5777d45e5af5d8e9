// Package infer implements an event-driven sparse inference engine — the
// execution model the paper's efficiency claims target (Loihi-class
// neuromorphic hardware and SyncNN-style FPGA designs).
//
// A trained spiking network is compiled into a pipeline where:
//
//   - batch-norm layers are folded into per-channel affine transforms of
//     the preceding convolution/linear accumulator (a standard deployment
//     rewrite, exact in eval mode);
//   - convolutions and linear layers store only active (masked-in, nonzero)
//     synapses, indexed by presynaptic position, and process *events*: the
//     nonzero activations of the previous stage. Work is therefore
//     proportional to (spike rate × density), the quantity the paper's
//     Sec. IV-C cost model estimates analytically — the engine measures it
//     directly as accumulated synaptic operations (SynOps);
//   - LIF neurons keep per-timestep membrane state exactly as in training.
//
// A compiled Engine is an immutable plan and safe for concurrent use: all
// per-request mutable state (activation buffers, event lists, membrane
// state, integer accumulators, the SynOps tally) lives in pooled Scratch
// arenas — see scratch.go — so any number of goroutines may call Infer,
// InferBatch or Classify on one engine simultaneously, each producing
// exactly the serial single-caller result. The engine processes one sample
// per request (inference semantics) and is verified elementwise against the
// training path's eval-mode forward.
package infer

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ndsnn/internal/fault"
	"ndsnn/internal/layers"
	"ndsnn/internal/quant"
	"ndsnn/internal/snn"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// faultPass fires once per inference timestep — the injected analogue of an
// engine bug mid-pass (panic) or a stalled stage (delay). A panic here
// abandons the pass's scratch arenas: release only runs after a pass
// completes normally, so nothing possibly-poisoned returns to the pool. The
// serving layer's chaos harness arms this site to prove batch isolation.
var faultPass = fault.New("infer.pass", fault.CanPanic|fault.CanDelay)

// act is the activation flowing between stages: a dense buffer plus its
// event list (the nonzero entries), which only the conv and linear stages
// that walk it build. Every act lives in a Scratch slot, so its buffer and
// event-list capacity are recycled across requests.
type act struct {
	shape  []int // [C,H,W] or [D]
	data   []float32
	events []sparse.Event
}

// refreshEvents rebuilds the event list from the dense buffer, reusing the
// list's capacity.
func (a *act) refreshEvents() {
	a.events = a.events[:0]
	for i, v := range a.data {
		if v != 0 {
			a.events = append(a.events, sparse.Event{Idx: int32(i), Val: v})
		}
	}
}

// stage is one compiled pipeline element, advanced one timestep at a time.
// A stage is immutable after compile: all mutable state lives in the
// Scratch slots the compiler assigned to it.
type stage interface {
	step(sc *Scratch, in *act) *act
}

// Engine is a compiled event-driven inference pipeline — the immutable,
// shareable plan. Concurrent callers are served from pooled Scratch arenas;
// the only engine-level mutable state is the atomic SynOps roll-up.
type Engine struct {
	stages []stage
	// prefix counts the leading stages ahead of the first stateful stage (a
	// LIF or a residual block). With direct encoding they see the same
	// sample at every timestep, so a pass evaluates them once, at t=0.
	prefix  int
	T       int
	classes int
	synOps  atomic.Int64
	quant   *QuantStats
	// qweights records, per integer stage, the trained parameter and the
	// QCSR it was quantized to — the mapping QuantizeNetWeights uses to
	// materialize the dequantized float reference.
	qweights []quantizedWeight
	// stageDT is the per-stage dtype table built by the compiler walker
	// (see dtype.go); inputGrid is the activation grid of the input requant
	// boundary, zero unless the engine was compiled with ActivationBits.
	stageDT   []StageDType
	inputGrid quant.ActGrid

	// Scratch-arena slot layout, fixed at compile time.
	nAct, nLIF, nInt int
	pool             sync.Pool

	// tel is the optional telemetry state (see telemetry.go). Nil — the
	// default — keeps every hot-path hook a single branch.
	tel *Telemetry
}

// QuantStats summarizes the integer engine's storage: how many compute
// stages run in integer, the stored synapse census, and the value-storage
// bytes of the packed representation versus the float32 engine. Nil on
// float engines.
type QuantStats struct {
	// Bits is the requested weight precision.
	Bits int
	// ActivationBits is the requested activation precision (0: activations
	// stay analog/binary — the mixed engine); FullInteger records that the
	// compile demanded, and verified, zero analog compute stages.
	ActivationBits int
	FullInteger    bool
	// QuantizedStages counts conv/linear stages computing in integer;
	// ComputeStages counts all conv/linear stages (the difference runs in
	// float32 — analog-input stages such as the direct-encoding first conv).
	QuantizedStages, ComputeStages int
	// AnalogStages counts compute stages whose synaptic arithmetic runs in
	// float32: unquantized conv/linear stages and float average pools. Zero
	// is the checkable "fully integer" claim — every remaining float op is an
	// O(neurons) epilogue (requant affine, LIF threshold) operating on exact
	// grid values.
	AnalogStages int
	// Stages is the per-stage dtype table (also via Engine.StageDTypes).
	Stages []StageDType
	// StoredSynapses counts synapses stored by quantized stages;
	// ZeroQuantized of them rounded to level zero and are left out of the
	// integer stages' synapse tables (the measured SynOps reduction of
	// quantization).
	StoredSynapses, ZeroQuantized int64
	// PackedValueBytes is the quantized value storage of the quantized
	// stages (two synapses per byte at 4 bits); FloatValueBytes is what the
	// float32 engine stores for the same synapses (4 bytes each). Index and
	// scale storage is identical between the two engines and excluded.
	PackedValueBytes, FloatValueBytes int64
}

// QuantStats returns the integer-storage summary, or nil for a float
// engine.
func (e *Engine) QuantStats() *QuantStats { return e.quant }

// SynOps returns the synaptic operations accumulated since the last
// ResetStats: one op per (event × active synapse) accumulate. Requests
// accumulate into their Scratch arena and roll up here atomically when they
// finish, so concurrent callers never race on the counter.
func (e *Engine) SynOps() int64 { return e.synOps.Load() }

// ResetStats zeroes the SynOps counter.
func (e *Engine) ResetStats() { e.synOps.Store(0) }

// DenseMACsPerTimestep returns the MAC count a dense, non-event
// implementation would spend per timestep on one sample — the denominator
// of the measured efficiency ratio. Conv stages size their bound from the
// last input they saw, so call it after the engine has served a request.
func (e *Engine) DenseMACsPerTimestep() int64 { return denseMACs(e.stages) }

// denseMACs sums the dense-MAC bound of the compute stages in stages,
// residual blocks included.
func denseMACs(stages []stage) int64 {
	var total int64
	for _, s := range stages {
		if d, ok := s.(interface{ denseMACs() int64 }); ok {
			total += d.denseMACs()
		}
	}
	return total
}

// Compile builds an engine from a trained network. The network is read, not
// modified; BN running statistics must reflect training (i.e. compile after
// training, as with any deployment export). Every BatchNorm must follow a
// conv or linear layer, into whose epilogue it folds.
func Compile(net *snn.Network) (*Engine, error) {
	e := &Engine{T: net.T}
	c := &compiler{eng: e, dt: dtAnalog}
	stages, err := c.compile(net.Layers)
	if err != nil {
		return nil, err
	}
	e.finish(stages, c)
	return e, nil
}

// QuantConfig selects the integer engine's precisions.
type QuantConfig struct {
	// WeightBits is the QCSR weight precision, 2–16 (the Sec. III-D
	// platform range).
	WeightBits int
	// ActivationBits, when nonzero (2–16), quantizes activations too: the
	// network input is snapped onto a power-of-two ActGrid by an explicit
	// requant boundary stage, grid-fed conv/linear stages accumulate graded
	// integer levels, and power-of-two average-pool windows run as int32
	// sum + shift — the fully-integer pipeline. 0 keeps the mixed engine:
	// only binary-spike-fed stages compute in integer.
	ActivationBits int
	// FullInteger makes "fully integer" a compile-time guarantee: the
	// compile fails, naming the offending stages, if any compute stage
	// still runs float synaptic arithmetic. Implies ActivationBits=8 when
	// ActivationBits is unset.
	FullInteger bool
}

func (cfg QuantConfig) withDefaults() QuantConfig {
	if cfg.FullInteger && cfg.ActivationBits == 0 {
		cfg.ActivationBits = 8
	}
	return cfg
}

// CompileQuantized builds the mixed integer engine: conv/linear stages whose
// inputs are spike trains store QCSR-quantized weights (per-output-channel
// power-of-two scales, int8 levels, packed two-per-byte at 4 bits) and
// accumulate events in int32 — the accumulator only returns to float at the
// stage boundary, where the dequantization scale and the folded BN affine
// apply before the next LIF threshold compare. Stages fed analog activations
// (the direct-encoding first conv, anything after average pooling) stay in
// float32, the standard mixed-precision deployment split; QuantStats reports
// the resulting coverage. bits spans the Sec. III-D platform range, 2–16.
// For integer activations too, see CompileQuantizedConfig.
func CompileQuantized(net *snn.Network, bits int) (*Engine, error) {
	return CompileQuantizedConfig(net, QuantConfig{WeightBits: bits})
}

// CompileQuantizedConfig builds the integer engine described by cfg. With
// ActivationBits set, the compiler walker propagates the typed activation
// IR (dtype.go) through the pipeline: an input requant boundary snaps the
// sample onto a po2 activation grid, conv/linear stages fed grid values
// accumulate level×level products in int32, power-of-two average-pool
// windows sum levels in int32 and rescale by a shift, and QuantStats
// reports the per-stage dtype table plus the remaining analog compute
// stages (zero on a fully-integer pipeline). Because every grid scale is a
// power of two, the engine stays bit-identical to the float engine running
// on the dequantized weights (grid-snapped inputs, ≤8-bit weights) — the
// PR 4 equivalence pin extended to the fully-integer path.
func CompileQuantizedConfig(net *snn.Network, cfg QuantConfig) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.WeightBits < 2 || cfg.WeightBits > 16 {
		return nil, fmt.Errorf("infer: unsupported bit width %d (want 2..16)", cfg.WeightBits)
	}
	e := &Engine{T: net.T, quant: &QuantStats{
		Bits: cfg.WeightBits, ActivationBits: cfg.ActivationBits, FullInteger: cfg.FullInteger,
	}}
	c := &compiler{eng: e, cfg: cfg, dt: dtAnalog}
	var stages []stage
	if cfg.ActivationBits > 0 {
		// The input grid covers [-1, 1], the direct-encoding pixel range.
		g, err := quant.NewActGrid(1, cfg.ActivationBits)
		if err != nil {
			return nil, err
		}
		e.inputGrid = g
		aq := &aquantStage{grid: g, slot: c.actSlot()}
		stages = append(stages, aq)
		din := c.dt
		c.dt = DType{Kind: QuantInt, Bits: cfg.ActivationBits, Scale: g.Scale}
		c.record(aq, din, c.dt)
	}
	rest, err := c.compile(net.Layers)
	if err != nil {
		return nil, err
	}
	stages = append(stages, rest...)
	e.finish(stages, c)
	if cfg.FullInteger {
		if names := e.analogStageNames(); len(names) > 0 {
			return nil, fmt.Errorf("infer: FullInteger requested but %d stage(s) still run float synaptic arithmetic: %s",
				len(names), strings.Join(names, ", "))
		}
	}
	return e, nil
}

// InputGrid returns the activation grid of the engine's input requant
// boundary; ok is false when the engine was compiled without
// ActivationBits. Samples already on this grid pass the boundary unchanged,
// which is what the full-integer equivalence pins snap their inputs with.
func (e *Engine) InputGrid() (g quant.ActGrid, ok bool) {
	return e.inputGrid, e.inputGrid.Bits != 0
}

// analogStageNames lists the compute stages still running float synaptic
// arithmetic — the FullInteger compile check and its error detail.
func (e *Engine) analogStageNames() []string {
	var names []string
	for _, st := range e.stageDT {
		switch st.Kind {
		case "conv", "linear", "avgpool":
			if !st.Integer {
				names = append(names, st.Name)
			}
		}
	}
	return names
}

// finish freezes the compiled plan: stages, the time-invariant prefix, the
// arena slot layout, and the scratch pool serving Infer/InferBatch.
func (e *Engine) finish(stages []stage, c *compiler) {
	e.stages = stages
	e.prefix = prefixLen(stages)
	e.nAct, e.nLIF, e.nInt = c.nAct, c.nLIF, c.nInt
	if e.quant != nil {
		e.quant.Stages = e.stageDT
	}
	e.pool.New = func() any { return e.NewScratch() }
}

// prefixLen returns the length of the time-invariant prefix: the leading
// stages ahead of the first stateful one. Every other stage is a pure
// function of its input, so fed the same sample at every timestep, each
// prefix stage produces the same output at every timestep. Everything from
// the first LIF on varies with t, so the prefix is always a leading run.
func prefixLen(stages []stage) int {
	for i, s := range stages {
		switch s.(type) {
		case *lifStage, *residualStage:
			return i
		}
	}
	return len(stages)
}

// acquire draws a pooled arena; release returns it for reuse. With
// telemetry enabled, acquire classifies the draw as a pool hit (recycled
// arena: its buffers are warm) or miss (freshly allocated by pool.New).
func (e *Engine) acquire() *Scratch {
	sc := e.pool.Get().(*Scratch)
	if t := e.tel; t != nil {
		if sc.fresh {
			t.poolMiss.Inc()
		} else {
			t.poolHit.Inc()
		}
	}
	sc.fresh = false
	return sc
}
func (e *Engine) release(sc *Scratch) { e.pool.Put(sc) }

// compiler walks the layer list turning layers into stages, and assigns
// every stage its Scratch slots (activation buffer, membrane state, integer
// accumulators) — the arena layout shared by all requests. It
// also propagates the typed activation IR (dtype.go): dt is the dtype of
// the edge flowing into the next stage — LIF outputs are BinarySpike, max
// pooling and reshapes preserve their input dtype, conv/linear requant
// affines and float average pooling produce AnalogF32, the input requant
// boundary and the integer average pool produce QuantInt grids, and the
// residual join reconciles its branches with joinDTypes. With WeightBits
// set, conv/linear stages compile to integer exactly when their input edge
// is on a grid (BinarySpike, or QuantInt when ActivationBits is set).
type compiler struct {
	eng *Engine
	cfg QuantConfig // zero value compiles the float32 engine
	dt  DType       // dtype of the edge flowing into the next stage

	// Dtype-table naming state: prefix/seq build instrument-style row names
	// ("02_lif", "03_residual/00_qconv", ...).
	prefix string
	seq    int

	// Arena slot counters — the layout under assignment.
	nAct, nLIF, nInt int
}

// record appends stage s's row to the engine's dtype table.
func (c *compiler) record(s stage, in, out DType) {
	c.recordKind(stageKind(s), in, out, stageInteger(s), stageOutSlot(s))
}

// recordKind appends a dtype-table row for a pseudo-stage (the residual
// join) or with explicit attributes.
func (c *compiler) recordKind(kind string, in, out DType, integer bool, slot int) {
	name := c.stageName(kind)
	c.seq++
	c.eng.stageDT = append(c.eng.stageDT, StageDType{
		Name: name, Kind: kind, In: in, Out: out, Integer: integer, slot: slot,
	})
}

// stageName is the dtype-table name the next recorded stage of this kind
// gets ("03_residual/00_qconv").
func (c *compiler) stageName(kind string) string {
	return fmt.Sprintf("%s%02d_%s", c.prefix, c.seq, kind)
}

func (c *compiler) actSlot() int { s := c.nAct; c.nAct++; return s }
func (c *compiler) lifSlot() int { s := c.nLIF; c.nLIF++; return s }
func (c *compiler) intSlot() int { s := c.nInt; c.nInt++; return s }

// newLIFStage builds a LIF stage with its activation and membrane slots.
func (c *compiler) newLIFStage(cfg snn.NeuronConfig) *lifStage {
	return &lifStage{cfg: cfg, slot: c.actSlot(), stateSlot: c.lifSlot()}
}

func (c *compiler) compile(ls []layers.Layer) ([]stage, error) {
	var out []stage
	for i := 0; i < len(ls); i++ {
		switch l := ls[i].(type) {
		case *layers.Conv2d, *layers.Linear:
			var bn *layers.BatchNorm
			if i+1 < len(ls) {
				if b, ok := ls[i+1].(*layers.BatchNorm); ok {
					bn = b
					i++
				}
			}
			din := c.dt
			s, err := c.computeStage(l, bn)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
			c.countComputeStage(c.quantizing())
			c.dt = dtAnalog
			c.record(s, din, c.dt)
		case *snn.LIF:
			din := c.dt
			s := c.newLIFStage(l.Config)
			out = append(out, s)
			c.dt = dtSpike
			c.record(s, din, c.dt)
		case *layers.MaxPool2d:
			// Max of values on a grid is a grid value: dtype preserved.
			s := &maxPoolStage{k: l.K, stride: l.Stride, slot: c.actSlot()}
			out = append(out, s)
			c.record(s, c.dt, c.dt)
		case *layers.AvgPool2d:
			din := c.dt
			var s stage
			if c.cfg.ActivationBits > 0 && din.onGrid() && isPo2(l.K*l.K) {
				// Grid-fed power-of-two window: int32 sum + po2 shift, no
				// float round-trip; the output stays on a grid.
				s = newIntAvgPoolStage(l, din, c)
			} else {
				s = &avgPoolStage{k: l.K, stride: l.Stride, slot: c.actSlot()}
				c.countAnalogStage()
				c.dt = dtAnalog
			}
			out = append(out, s)
			c.record(s, din, c.dt)
		case *layers.Flatten:
			s := &flattenStage{slot: c.actSlot()}
			out = append(out, s)
			c.record(s, c.dt, c.dt)
		case *layers.Dropout:
			// Identity at inference.
		case *snn.ResidualBlock:
			din := c.dt
			// Reserve the block's row so it precedes its internal rows.
			idx := len(c.eng.stageDT)
			c.eng.stageDT = append(c.eng.stageDT, StageDType{})
			rs, err := c.compileResidual(l)
			if err != nil {
				return nil, err
			}
			out = append(out, rs)
			c.eng.stageDT[idx] = StageDType{
				Name: fmt.Sprintf("%s%02d_residual", c.prefix, c.seq),
				Kind: "residual", In: din, Out: c.dt, slot: -1,
			}
			c.seq++
		default:
			return nil, fmt.Errorf("infer: cannot compile layer of type %T", l)
		}
	}
	return out, nil
}

// quantizing reports whether the next conv/linear stage compiles to
// integer: weights are being quantized and the incoming edge carries exact
// integer levels (binary spikes, or a QuantInt grid).
func (c *compiler) quantizing() bool { return c.cfg.WeightBits > 0 && c.dt.onGrid() }

// computeStage compiles a conv or linear layer, with its bias and the
// eval-mode affine of the BatchNorm bn that follows it (nil if none) folded
// into the epilogue: over the QCSR levels quantizeWeight decodes when
// quantizing, otherwise over the float weights with deq = 1.
func (c *compiler) computeStage(l layers.Layer, bn *layers.BatchNorm) (stage, error) {
	var weight, bias *layers.Param
	kind := "qlinear"
	switch l := l.(type) {
	case *layers.Conv2d:
		weight, bias, kind = l.Weight, l.Bias, "qconv"
	case *layers.Linear:
		weight, bias = l.Weight, l.Bias
	}
	var b, scale, shift []float32
	if bias != nil {
		b = append([]float32(nil), bias.W.Data...)
	}
	if bn != nil {
		scale, shift = bnFold(bn)
	}
	if !c.quantizing() {
		deq := make([]float32, weight.W.Dim(0))
		for i := range deq {
			deq[i] = 1
		}
		return newComputeStage(l, weight.W.Data, epilogue[float32]{deq: deq, bias: b, scale: scale, shift: shift}, c), nil
	}
	levels, ep, err := c.quantizeWeight(weight, kind)
	if err != nil {
		return nil, err
	}
	ep.bias, ep.scale, ep.shift = b, scale, shift
	return newComputeStage(l, levels, ep, c), nil
}

// newComputeStage builds the conv or linear stage of layer l over the dense
// row-major weight matrix w.
func newComputeStage[W sparse.Weight](l layers.Layer, w []W, ep epilogue[W], c *compiler) stage {
	if conv, ok := l.(*layers.Conv2d); ok {
		return newConvStage(conv, w, ep, c)
	}
	return newLinearStage(l.(*layers.Linear), w, ep, c)
}

func (c *compiler) countComputeStage(quantized bool) {
	if q := c.eng.quant; q != nil {
		q.ComputeStages++
		if !quantized {
			q.AnalogStages++
		}
	}
}

// countAnalogStage tallies a non-conv/linear stage that performs float
// arithmetic on activations (a float average pool).
func (c *compiler) countAnalogStage() {
	if q := c.eng.quant; q != nil {
		q.AnalogStages++
	}
}

func (c *compiler) compileResidual(b *snn.ResidualBlock) (stage, error) {
	// Both paths see the block's input edge, so the shortcut restarts from
	// the main path's entry dtype; the join reconciles whatever the two
	// branches produce (joinDTypes — an identity shortcut keeps its spike
	// dtype while the main path's BN epilogue is analog, so the sum edge is
	// analog), and the block's output neuron re-binarizes.
	dtIn := c.dt
	outerPrefix, outerSeq := c.prefix, c.seq
	c.prefix = fmt.Sprintf("%s%02d_residual/", outerPrefix, outerSeq)
	c.seq = 0
	main, err := c.compile([]layers.Layer{b.Conv1, b.BN1, b.LIF1, b.Conv2, b.BN2})
	if err != nil {
		return nil, err
	}
	dtMain := c.dt
	dtShort := dtIn
	var shortcut []stage
	if b.SCConv != nil {
		c.dt = dtIn
		shortcut, err = c.compile([]layers.Layer{b.SCConv, b.SCBN})
		if err != nil {
			return nil, err
		}
		dtShort = c.dt
	}
	dtSum := joinDTypes(dtMain, dtShort)
	sumSlot := c.actSlot()
	c.recordKind("sum", dtMain, dtSum, dtSum.onGrid(), sumSlot)
	c.dt = dtSum
	outStage := c.newLIFStage(b.LIF2.Config)
	c.dt = dtSpike
	c.record(outStage, dtSum, c.dt)
	c.prefix, c.seq = outerPrefix, outerSeq
	return &residualStage{
		main: main, shortcut: shortcut,
		out: outStage, sumSlot: sumSlot,
	}, nil
}

// Infer runs one sample (shape [C,H,W], direct encoding) through T
// timesteps and returns the time-averaged output of the final stage. The
// time-invariant prefix (the stages ahead of the first LIF) runs once, at
// t=0; timesteps 1..T−1 start at the first stateful stage from the prefix's
// output. Every stage does the same arithmetic on the same input as a pass
// that runs all stages T times, so the output is bit-identical to it, and
// SynOps count the prefix's accumulates at all T timesteps. Safe for
// concurrent use; the request is served from a pooled arena.
func (e *Engine) Infer(sample *tensor.Tensor) []float32 {
	sc := e.acquire()
	out := e.InferScratch(sc, sample)
	res := append([]float32(nil), out...)
	e.release(sc)
	return res
}

// InferScratch runs one sample using the caller's arena. The returned slice
// is owned by the arena and valid only until its next request — callers
// that keep scores across requests must copy them (Infer does). Use this
// when managing arenas explicitly; otherwise call Infer.
func (e *Engine) InferScratch(sc *Scratch, sample *tensor.Tensor) []float32 {
	sc.load(sample)
	e.pass([]*Scratch{sc}, nil)
	return sc.avg
}

// InferBatch runs a batch of single-sample requests through the pipeline
// stage-major: at every timestep each stage processes all samples before
// the pipeline advances, so a stage's compiled weight tables are traversed
// while cache-hot for the whole batch (the serving layer's coalescing win).
// As in Infer, the time-invariant prefix runs once, at t=0, and
// each sample's prefix output feeds its timesteps 1..T−1. Every sample's
// arithmetic and operation order are exactly Infer's, so outputs are
// bit-identical to serial single-sample calls. Safe for concurrent use.
func (e *Engine) InferBatch(samples []*tensor.Tensor) [][]float32 {
	return e.InferBatchTraced(samples, nil)
}

// InferBatchTraced is InferBatch with trace collection: when telemetry is
// enabled, the pass is force-traced and its per-stage span breakdown —
// aggregated across the batch's samples — is written into pt instead of the
// engine's own trace ring, so the caller (the serving layer) can fold the
// engine segments into a larger request trace. With telemetry disabled,
// pt.Spans comes back empty and the call is exactly InferBatch. Outputs are
// bit-identical to InferBatch and to serial Infer calls either way.
func (e *Engine) InferBatchTraced(samples []*tensor.Tensor, pt *PassTrace) [][]float32 {
	if len(samples) == 0 {
		if pt != nil {
			pt.Spans = pt.Spans[:0]
		}
		return nil
	}
	scs := make([]*Scratch, len(samples))
	for i, s := range samples {
		scs[i] = e.acquire()
		scs[i].load(s)
	}
	e.pass(scs, pt)
	out := make([][]float32, len(scs))
	for i, sc := range scs {
		out[i] = append([]float32(nil), sc.avg...)
		e.release(sc)
	}
	return out
}

// load starts a request on the arena: fresh temporal state, and sample as
// the network input. A conv stage that reads it builds its event list.
func (sc *Scratch) load(sample *tensor.Tensor) {
	sc.begin()
	in := &sc.input
	in.shape = appendShape(in.shape[:0], sample)
	in.data = sample.Data
	sc.cur = in
}

// pass runs one loaded arena per sample through T timesteps, stage-major,
// and leaves each sample's time-averaged output in its arena's avg. With
// telemetry on, the pass's telemetry accumulates on the first arena:
// per-stage SynOps summed over samples, and on traced passes per-stage
// wall-clock around each stage's loop over the arenas and the integer
// stages' requant sub-timing summed over arenas.
func (e *Engine) pass(scs []*Scratch, pt *PassTrace) {
	sc0 := scs[0]
	t0, tracked := e.beginPass(sc0, pt != nil)
	if !tracked && pt != nil {
		pt.Spans = pt.Spans[:0]
	}
	if tracked && sc0.timed {
		for _, sc := range scs[1:] {
			sc.timeRequant = true
			sc.requantNS = 0
		}
	}
	for t := 0; t < e.T; t++ {
		faultPass.Fire()
		if t == 0 {
			e.stepStages(scs, 0, e.prefix)
			for _, sc := range scs {
				sc.pre = sc.cur
				// The tallies hold only the prefix's ops here; count them
				// at every timestep, as the T-step network performs them.
				sc.synOps *= int64(e.T)
			}
			if tracked {
				e.creditPrefixStages(sc0)
			}
		}
		for _, sc := range scs {
			sc.cur = sc.pre
		}
		e.stepStages(scs, e.prefix, len(e.stages))
		for _, sc := range scs {
			if len(sc.avg) == 0 {
				sc.avg = growFloat32(sc.avg, len(sc.cur.data))
			}
			for i, v := range sc.cur.data {
				sc.avg[i] += v
			}
		}
	}
	inv := 1 / float32(e.T)
	for _, sc := range scs {
		for i := range sc.avg {
			sc.avg[i] *= inv
		}
		e.synOps.Add(sc.synOps)
		sc.synOps = 0
	}
	if tracked {
		if sc0.timed {
			for _, sc := range scs[1:] {
				sc0.requantNS += sc.requantNS
				sc.timeRequant = false
			}
		}
		e.endPass(sc0, t0, "infer", len(scs), pt)
	}
}

// appendShape appends a tensor's dimensions to dst without the copy
// Tensor.Shape makes — the request path must not allocate per sample.
func appendShape(dst []int, t *tensor.Tensor) []int {
	for i := 0; i < t.NumDims(); i++ {
		dst = append(dst, t.Dim(i))
	}
	return dst
}

// Classify returns the argmax class for one sample. Safe for concurrent use.
func (e *Engine) Classify(sample *tensor.Tensor) int {
	sc := e.acquire()
	scores := e.InferScratch(sc, sample)
	best, bestIdx := scores[0], 0
	for i, v := range scores[1:] {
		if v > best {
			best = v
			bestIdx = i + 1
		}
	}
	e.release(sc)
	return bestIdx
}
