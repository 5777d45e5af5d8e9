package infer

import "fmt"

// The typed activation IR. Every edge between compiled stages carries a
// DType describing the values flowing across it, and the compiler walker
// propagates dtypes through the pipeline instead of flipping a single
// "binary" flag. Three kinds cover the engine:
//
//   - AnalogF32: arbitrary float32 activations (the direct-encoding network
//     input, conv/linear pre-activations after the requant affine, float
//     average pooling);
//   - BinarySpike: {0,1} spike trains (LIF outputs; preserved by max
//     pooling and reshapes);
//   - QuantInt: activations on a signed integer grid with a power-of-two
//     scale — every value is exactly level×Scale in float32, so the
//     float32-backed activation buffers carry integer levels losslessly and
//     an integer stage recovers them with one exact multiply (1/Scale is
//     also a power of two).
//
// A stage is "integer" when its synaptic arithmetic — the O(events ×
// synapses) accumulate that dominates the work — runs in int32. The O(n)
// per-neuron epilogues (requant affine, LIF threshold) stay in float32 here
// for bit-identity with the training path, but on a grid input with po2
// scales those float ops compute exactly what fixed-point hardware would.
type DType struct {
	// Kind discriminates the edge type.
	Kind DKind
	// Bits is the signed level width of a QuantInt edge (informational for
	// memory accounting and overflow reasoning; the kernels use int32).
	Bits int
	// Scale is the QuantInt grid step, a power of two.
	Scale float32
}

// DKind enumerates the activation edge kinds.
type DKind uint8

const (
	// AnalogF32 marks arbitrary float32 activations.
	AnalogF32 DKind = iota
	// BinarySpike marks {0,1} spike trains.
	BinarySpike
	// QuantInt marks activations on a signed po2-scaled integer grid.
	QuantInt
)

var (
	dtAnalog = DType{Kind: AnalogF32}
	dtSpike  = DType{Kind: BinarySpike}
)

// String renders the dtype for stage tables: "f32", "spike", "int8·2^-6".
func (d DType) String() string {
	switch d.Kind {
	case BinarySpike:
		return "spike"
	case QuantInt:
		return fmt.Sprintf("int%d·%g", d.Bits, d.Scale)
	default:
		return "f32"
	}
}

// onGrid reports whether the edge's values lie on an exact integer grid —
// the precondition for integer event accumulation.
func (d DType) onGrid() bool { return d.Kind == BinarySpike || d.Kind == QuantInt }

// gridScale returns the grid step (1 for spikes, 0 for analog edges).
func (d DType) gridScale() float32 {
	switch d.Kind {
	case BinarySpike:
		return 1
	case QuantInt:
		return d.Scale
	default:
		return 0
	}
}

// maxLevel bounds the magnitude of the integer levels on a grid edge.
func (d DType) maxLevel() int64 {
	switch d.Kind {
	case BinarySpike:
		return 1
	case QuantInt:
		return int64(1)<<(d.Bits-1) - 1
	default:
		return 0
	}
}

// bitWidth is the per-element storage cost of the edge in bits: 1 for
// spikes, Bits for quantized levels, 32 for analog float32.
func (d DType) bitWidth() int {
	switch d.Kind {
	case BinarySpike:
		return 1
	case QuantInt:
		return d.Bits
	default:
		return 32
	}
}

// normQuant views a spike edge as the quantized grid it is ({0,1} =
// 2-bit levels at scale 1), so the join rule below needs one case.
func (d DType) normQuant() DType {
	if d.Kind == BinarySpike {
		return DType{Kind: QuantInt, Bits: 2, Scale: 1}
	}
	return d
}

// joinDTypes reconciles the dtypes of two edges that sum elementwise into
// one (the residual-block join). The rule of the lattice:
//
//   - identical dtypes join to themselves (a spike sum is NOT binary —
//     see below — so identical spikes still fall through to the grid rule);
//   - two grid edges with the same scale stay on that grid: the sum of
//     levels is a level, one bit wider (|a+b| ≤ 2·maxLevel);
//   - everything else — any analog operand, or grids with different scales
//     (their sum lands off both grids) — joins to AnalogF32.
//
// This replaces the old compiler's raw save/restore of a boolean, which had
// no rule at all for branches that disagreed.
func joinDTypes(a, b DType) DType {
	if a.Kind == AnalogF32 || b.Kind == AnalogF32 {
		return dtAnalog
	}
	an, bn := a.normQuant(), b.normQuant()
	if an.Scale != bn.Scale {
		return dtAnalog
	}
	bits := an.Bits
	if bn.Bits > bits {
		bits = bn.Bits
	}
	return DType{Kind: QuantInt, Bits: bits + 1, Scale: an.Scale}
}

// bitsForLevel returns the smallest signed width whose level range covers
// ±maxLevel.
func bitsForLevel(maxLevel int64) int {
	bits := 2
	for int64(1)<<(bits-1)-1 < maxLevel {
		bits++
	}
	return bits
}

// isPo2 reports whether n is a positive power of two — the window-size
// condition under which an integer average pool divides exactly (the /n is
// a shift on the po2 grid).
func isPo2(n int) bool { return n > 0 && n&(n-1) == 0 }

// StageDType is one row of an engine's per-stage dtype table: the stage's
// instrument-style name, its input and output edge dtypes, and whether its
// synaptic arithmetic runs in integer. Rows nested inside a residual block
// are name-prefixed with the block's entry ("03_residual/...").
type StageDType struct {
	Name string
	// Kind is the stage kind label ("conv", "qconv", "intavgpool", ...).
	Kind string
	// In/Out are the dtypes of the stage's input and output edges.
	In, Out DType
	// Integer marks stages whose synaptic arithmetic (or requant boundary)
	// runs on integer levels.
	Integer bool

	// slot is the stage's output activation slot (-1 when the stage aliases
	// its input buffer) — the hook ActivationFootprint sizes edges with.
	slot int
}

// StageDTypes returns the engine's per-stage dtype table in pipeline order
// (residual-internal stages follow their block's row). Available on float
// and integer engines alike; on quantized engines the same table is exposed
// as QuantStats.Stages.
func (e *Engine) StageDTypes() []StageDType { return e.stageDT }

// stageInteger reports whether a stage's synaptic arithmetic (or, for the
// activation-requant boundary, its grid projection) runs on integer levels.
func stageInteger(s stage) bool {
	switch s.(type) {
	case *qconvStage, *qlinearStage, *intAvgPoolStage, *aquantStage:
		return true
	default:
		return false
	}
}

// stageOutSlot returns a stage's output activation slot, or -1 when its
// output aliases the input buffer (flatten) or lives in nested stages
// (residual — its internal rows carry the slots).
func stageOutSlot(s stage) int {
	switch st := s.(type) {
	case *convStage:
		return st.slot
	case *qconvStage:
		return st.slot
	case *linearStage:
		return st.slot
	case *qlinearStage:
		return st.slot
	case *affineStage:
		return st.slot
	case *lifStage:
		return st.slot
	case *maxPoolStage:
		return st.slot
	case *avgPoolStage:
		return st.slot
	case *intAvgPoolStage:
		return st.slot
	case *aquantStage:
		return st.slot
	default:
		return -1
	}
}

// ActivationFootprint sizes the engine's inter-stage activation edges from
// the arena of a request it just served (call after InferScratch on sc):
// packedBytes is the dtype-aware storage — 1 bit per binary spike, Bits per
// quantized level, 32 per analog float32, rounded up to bytes per edge —
// and floatBytes is the same buffers at float32 width. Their ratio is the
// activation-memory reduction of an integer pipeline; edges that alias
// their input (flatten) are skipped.
func (e *Engine) ActivationFootprint(sc *Scratch) (packedBytes, floatBytes int64) {
	for _, st := range e.stageDT {
		if st.slot < 0 || st.slot >= len(sc.acts) {
			continue
		}
		elems := int64(len(sc.acts[st.slot].data))
		packedBytes += (elems*int64(st.Out.bitWidth()) + 7) / 8
		floatBytes += 4 * elems
	}
	return packedBytes, floatBytes
}
