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
	"ndsnn/internal/tensor"
)

// faultPass fires once per inference timestep — the injected analogue of an
// engine bug mid-pass (panic) or a stalled stage (delay). A panic here
// abandons the pass's scratch arenas: release only runs after a pass
// completes normally, so nothing possibly-poisoned returns to the pool. The
// serving layer's chaos harness arms this site to prove batch isolation.
var faultPass = fault.New("infer.pass", fault.CanPanic|fault.CanDelay)

// Event is one nonzero activation: flat index plus value (graded spikes
// generalize binary events and make average pooling composable).
type Event struct {
	Idx int32
	Val float32
}

// act is the activation flowing between stages: a dense buffer plus its
// event list (the nonzero entries). Every act lives in a Scratch slot, so
// its buffer and event-list capacity are recycled across requests.
type act struct {
	shape  []int // [C,H,W] or [D]
	data   []float32
	events []Event
}

// refreshEvents rebuilds the event list from the dense buffer, reusing the
// list's capacity.
func (a *act) refreshEvents() {
	a.events = a.events[:0]
	for i, v := range a.data {
		if v != 0 {
			a.events = append(a.events, Event{int32(i), v})
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
	stages  []stage
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
	nAct, nLIF, nInt, nOps int
	pool                   sync.Pool

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
	// float32: unquantized conv/linear stages, float average pools, and
	// standalone BN affines. Zero is the checkable "fully integer" claim —
	// every remaining float op is an O(neurons) epilogue (requant affine,
	// LIF threshold) operating on exact grid values.
	AnalogStages int
	// Stages is the per-stage dtype table (also via Engine.StageDTypes).
	Stages []StageDType
	// StoredSynapses counts synapses stored by quantized stages;
	// ZeroQuantized of them rounded to level zero and are skipped by the
	// integer kernels (the measured SynOps reduction of quantization).
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
// of the measured efficiency ratio.
func (e *Engine) DenseMACsPerTimestep() int64 {
	var total int64
	for _, s := range e.stages {
		if d, ok := s.(interface{ denseMACs() int64 }); ok {
			total += d.denseMACs()
		}
	}
	return total
}

// Compile builds an engine from a trained network. The network is read, not
// modified; BN running statistics must reflect training (i.e. compile after
// training, as with any deployment export).
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
	// InputMaxAbs is the input activation range the ActGrid covers.
	// 0 defaults to 1 — the direct-encoding pixel range.
	InputMaxAbs float32
}

func (cfg QuantConfig) withDefaults() QuantConfig {
	if cfg.FullInteger && cfg.ActivationBits == 0 {
		cfg.ActivationBits = 8
	}
	if cfg.InputMaxAbs == 0 {
		cfg.InputMaxAbs = 1
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
		g, err := quant.NewActGrid(cfg.InputMaxAbs, cfg.ActivationBits)
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
		case "conv", "linear", "avgpool", "affine":
			if !st.Integer {
				names = append(names, st.Name)
			}
		}
	}
	return names
}

// finish freezes the compiled plan: stages, the arena slot layout, and the
// scratch pool serving Infer/InferBatch.
func (e *Engine) finish(stages []stage, c *compiler) {
	e.stages = stages
	e.nAct, e.nLIF, e.nInt, e.nOps = c.nAct, c.nLIF, c.nInt, c.nOps
	if e.quant != nil {
		e.quant.Stages = e.stageDT
	}
	e.pool.New = func() any { return e.NewScratch() }
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
// accumulators, band tallies) — the arena layout shared by all requests. It
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
	nAct, nLIF, nInt, nOps int
}

// record appends stage s's row to the engine's dtype table.
func (c *compiler) record(s stage, in, out DType) {
	c.recordKind(stageKind(s), in, out, stageInteger(s), stageOutSlot(s))
}

// recordKind appends a dtype-table row for a pseudo-stage (the residual
// join) or with explicit attributes.
func (c *compiler) recordKind(kind string, in, out DType, integer bool, slot int) {
	name := fmt.Sprintf("%s%02d_%s", c.prefix, c.seq, kind)
	c.seq++
	c.eng.stageDT = append(c.eng.stageDT, StageDType{
		Name: name, Kind: kind, In: in, Out: out, Integer: integer, slot: slot,
	})
}

func (c *compiler) actSlot() int { s := c.nAct; c.nAct++; return s }
func (c *compiler) lifSlot() int { s := c.nLIF; c.nLIF++; return s }
func (c *compiler) intSlot() int { s := c.nInt; c.nInt++; return s }
func (c *compiler) opsSlot() int { s := c.nOps; c.nOps++; return s }

// newLIFStage builds a LIF stage with its activation and membrane slots.
func (c *compiler) newLIFStage(cfg snn.NeuronConfig) *lifStage {
	return &lifStage{cfg: cfg, slot: c.actSlot(), stateSlot: c.lifSlot()}
}

func (c *compiler) compile(ls []layers.Layer) ([]stage, error) {
	var out []stage
	for i := 0; i < len(ls); i++ {
		switch l := ls[i].(type) {
		case *layers.Conv2d:
			var bn *layers.BatchNorm
			if i+1 < len(ls) {
				if b, ok := ls[i+1].(*layers.BatchNorm); ok {
					bn = b
					i++
				}
			}
			din := c.dt
			var s stage
			if c.quantizing() {
				qs, err := newQConvStage(l, bn, c)
				if err != nil {
					return nil, err
				}
				s = qs
			} else {
				s = newConvStage(l, bn, c)
			}
			out = append(out, s)
			c.countComputeStage(c.quantizing())
			c.dt = dtAnalog
			c.record(s, din, c.dt)
		case *layers.Linear:
			var bn *layers.BatchNorm
			if i+1 < len(ls) {
				if b, ok := ls[i+1].(*layers.BatchNorm); ok {
					bn = b
					i++
				}
			}
			din := c.dt
			var s stage
			if c.quantizing() {
				qs, err := newQLinearStage(l, bn, c)
				if err != nil {
					return nil, err
				}
				s = qs
			} else {
				s = newLinearStage(l, bn, c)
			}
			out = append(out, s)
			c.countComputeStage(c.quantizing())
			c.dt = dtAnalog
			c.record(s, din, c.dt)
		case *layers.BatchNorm:
			din := c.dt
			s := newAffineStage(l, c)
			out = append(out, s)
			c.countAnalogStage()
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

func (c *compiler) countComputeStage(quantized bool) {
	if q := c.eng.quant; q != nil {
		q.ComputeStages++
		if !quantized {
			q.AnalogStages++
		}
	}
}

// countAnalogStage tallies a non-conv/linear stage that performs float
// arithmetic on activations (float average pool, standalone BN affine).
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
// timesteps and returns the time-averaged output of the final stage. Safe
// for concurrent use; the request is served from a pooled arena.
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
	return e.inferScratch(sc, sample, nil)
}

func (e *Engine) inferScratch(sc *Scratch, sample *tensor.Tensor, pt *PassTrace) []float32 {
	sc.begin()
	t0, tracked := e.beginPass(sc, pt != nil)
	in := &sc.input
	in.shape = appendShape(in.shape[:0], sample)
	in.data = sample.Data
	for t := 0; t < e.T; t++ {
		faultPass.Fire()
		in.refreshEvents()
		cur := e.stepStages(sc, in)
		if len(sc.avg) == 0 {
			sc.avg = growFloat32(sc.avg, len(cur.data))
		}
		for i, v := range cur.data {
			sc.avg[i] += v
		}
	}
	inv := 1 / float32(e.T)
	for i := range sc.avg {
		sc.avg[i] *= inv
	}
	e.synOps.Add(sc.synOps)
	sc.synOps = 0
	if tracked {
		e.endPass(sc, t0, "infer", 1, pt)
	} else if pt != nil {
		pt.Spans = pt.Spans[:0]
	}
	return sc.avg
}

// InferBatch runs a batch of single-sample requests through the pipeline
// stage-major: at every timestep each stage processes all samples before
// the pipeline advances, so a stage's compiled weight tables are traversed
// while cache-hot for the whole batch (the serving layer's coalescing win —
// the FuseTimesteps argument applied across requests instead of across
// timesteps). Every sample's arithmetic and operation order are exactly
// Infer's, so outputs are bit-identical to serial single-sample calls. Safe
// for concurrent use.
func (e *Engine) InferBatch(samples []*tensor.Tensor) [][]float32 {
	return e.inferBatch(samples, nil)
}

// InferBatchTraced is InferBatch with trace collection: when telemetry is
// enabled, the pass is force-traced and its per-stage span breakdown —
// aggregated across the batch's samples — is written into pt instead of the
// engine's own trace ring, so the caller (the serving layer) can fold the
// engine segments into a larger request trace. With telemetry disabled,
// pt.Spans comes back empty and the call is exactly InferBatch. Outputs are
// bit-identical to InferBatch and to serial Infer calls either way.
func (e *Engine) InferBatchTraced(samples []*tensor.Tensor, pt *PassTrace) [][]float32 {
	return e.inferBatch(samples, pt)
}

func (e *Engine) inferBatch(samples []*tensor.Tensor, pt *PassTrace) [][]float32 {
	n := len(samples)
	if n == 0 {
		if pt != nil {
			pt.Spans = pt.Spans[:0]
		}
		return nil
	}
	if n == 1 {
		sc := e.acquire()
		res := append([]float32(nil), e.inferScratch(sc, samples[0], pt)...)
		e.release(sc)
		return [][]float32{res}
	}
	scs := make([]*Scratch, n)
	cur := make([]*act, n)
	for i, s := range samples {
		sc := e.acquire()
		sc.begin()
		sc.input.shape = appendShape(sc.input.shape[:0], s)
		sc.input.data = s.Data
		scs[i] = sc
	}
	// Telemetry for the whole coalesced pass accumulates on the first arena:
	// per-stage SynOps sum over samples, per-stage wall-clock measured around
	// the stage-major inner loop (the batch's aggregate, matching how the
	// pass actually spends time).
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
		for i := range scs {
			scs[i].input.refreshEvents()
			cur[i] = &scs[i].input
		}
		if tracked {
			e.stepStagesBatch(scs, cur, sc0)
		} else {
			for _, st := range e.stages {
				for i := range scs {
					cur[i] = st.step(scs[i], cur[i])
				}
			}
		}
		for i, sc := range scs {
			if len(sc.avg) == 0 {
				sc.avg = growFloat32(sc.avg, len(cur[i].data))
			}
			for j, v := range cur[i].data {
				sc.avg[j] += v
			}
		}
	}
	out := make([][]float32, n)
	inv := 1 / float32(e.T)
	for i, sc := range scs {
		res := make([]float32, len(sc.avg))
		for j, v := range sc.avg {
			res[j] = v * inv
		}
		out[i] = res
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
		e.endPass(sc0, t0, "infer", n, pt)
	}
	for _, sc := range scs {
		e.release(sc)
	}
	return out
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
