package infer

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"ndsnn/internal/obs"
)

// Engine telemetry: per-pass latency, per-stage SynOps, and sampled
// per-stage wall-clock tracing, recorded into an obs.Registry.
//
// The instrumentation is layered by cost so the ≤1% overhead budget holds:
//
//   - telemetry disabled (the default): every hot-path hook is one nil
//     check on e.tel — the engine runs the exact pre-telemetry loops;
//   - telemetry enabled, untraced pass (the common case): one histogram
//     record for the pass latency, plus per-stage SynOps deltas — integer
//     subtract/add per stage per timestep, rolled up as one atomic add per
//     stage per pass. No clock reads inside the stage loop;
//   - traced pass (one in TraceEvery): per-stage wall-clock timing, pprof
//     goroutine labels (so CPU profiles segment by stage), requantization
//     sub-timing inside the integer stages, and a span breakdown pushed to
//     the registry's trace ring.
//
// None of the hooks touch the arithmetic: outputs are bit-identical with
// telemetry on, off, or traced (pinned by TestTelemetryBitIdentical).

// Telemetry is an engine's recording state. It is created by
// EnableTelemetry and immutable afterwards; all mutation goes through the
// obs instruments, which are atomic.
type Telemetry struct {
	reg        *obs.Registry
	passNS     *obs.Histogram   // infer_pass_ns: wall-clock of one pass (sample or batch)
	stageNS    []*obs.Histogram // infer_stage_ns{stage=...}: per-stage total ns of a traced pass
	stageOps   []*obs.Counter   // infer_stage_synops_total{stage=...}
	poolHit    *obs.Counter     // scratch arena served from the pool
	poolMiss   *obs.Counter     // scratch arena freshly allocated
	names      []string         // "00_conv", "01_lif", ... per top-level stage
	labels     []context.Context
	base       context.Context
	traceEvery uint32
	seq        atomic.Uint32
}

// DefaultTraceEvery is the sampling period used when EnableTelemetry is
// given traceEvery == 0: one pass in eight carries full per-stage timing.
const DefaultTraceEvery = 8

// EnableTelemetry attaches a registry to the engine. traceEvery sets the
// tracing sample period (0 → DefaultTraceEvery; negative → never trace,
// keeping only the pass histogram and SynOps counters). Call it once,
// before the engine serves traffic — it is not synchronized against
// in-flight passes. A nil registry leaves telemetry disabled.
func (e *Engine) EnableTelemetry(reg *obs.Registry, traceEvery int) {
	if reg == nil {
		return
	}
	if traceEvery == 0 {
		traceEvery = DefaultTraceEvery
	}
	t := &Telemetry{reg: reg, base: context.Background()}
	if traceEvery > 0 {
		t.traceEvery = uint32(traceEvery)
	}
	t.passNS = reg.Histogram("infer_pass_ns", "ns")
	t.poolHit = reg.Counter("infer_scratch_pool_hit_total")
	t.poolMiss = reg.Counter("infer_scratch_pool_miss_total")
	for i, s := range e.stages {
		name := fmt.Sprintf("%02d_%s", i, stageKind(s))
		t.names = append(t.names, name)
		t.stageNS = append(t.stageNS, reg.Histogram(fmt.Sprintf("infer_stage_ns{stage=%q}", name), "ns"))
		t.stageOps = append(t.stageOps, reg.Counter(fmt.Sprintf("infer_stage_synops_total{stage=%q}", name)))
		t.labels = append(t.labels, pprof.WithLabels(t.base, pprof.Labels("infer_stage", name)))
	}
	e.tel = t
}

// Telemetry returns the attached telemetry state (nil when disabled).
func (e *Engine) Telemetry() *Telemetry { return e.tel }

// StageNames returns the per-stage instrument names ("00_conv", ...) in
// pipeline order, or nil when telemetry is disabled.
func (t *Telemetry) StageNames() []string {
	if t == nil {
		return nil
	}
	return t.names
}

// sample decides whether the next pass carries full tracing.
func (t *Telemetry) sample() bool {
	return t.traceEvery > 0 && t.seq.Add(1)%t.traceEvery == 0
}

// stageKind names a compiled stage for metric labels.
func stageKind(s stage) string {
	switch s.(type) {
	case *convStage[float32]:
		return "conv"
	case *convStage[int32]:
		return "qconv"
	case *linearStage[float32]:
		return "linear"
	case *linearStage[int32]:
		return "qlinear"
	case *lifStage:
		return "lif"
	case *maxPoolStage:
		return "maxpool"
	case *avgPoolStage:
		return "avgpool"
	case *intAvgPoolStage:
		return "intavgpool"
	case *aquantStage:
		return "aquant"
	case *flattenStage:
		return "flatten"
	case *residualStage:
		return "residual"
	default:
		return "stage"
	}
}

// PassTrace receives the span breakdown of one traced pass — the hook the
// serving layer uses to fold per-stage engine segments into its own
// queue/assembly trace instead of the engine pushing a separate ring entry.
// The Spans buffer is reused across calls; the caller owns it.
type PassTrace struct {
	Spans []obs.Span
}

// beginPass prepares a pass's telemetry accumulators on the arena and
// decides whether this pass is traced. Returns the pass start time and
// whether telemetry is active at all; with telemetry disabled it is a
// single branch.
func (e *Engine) beginPass(sc *Scratch, forceTrace bool) (time.Time, bool) {
	t := e.tel
	if t == nil {
		return time.Time{}, false
	}
	n := len(e.stages)
	sc.stageOps = growInt64(sc.stageOps, n)
	sc.timed = forceTrace || t.sample()
	sc.timeRequant = false
	if sc.timed {
		sc.stageNS = growInt64(sc.stageNS, n)
		sc.timeRequant = true
		sc.requantNS = 0
	}
	return time.Now(), true
}

// endPass flushes a pass's accumulators: the pass latency, one atomic add
// per stage with nonzero SynOps, and — on traced passes — the per-stage
// latency histograms plus the span breakdown, delivered to pt when the
// caller collects it (the serving layer) or pushed to the trace ring
// otherwise. Only call when beginPass reported telemetry active.
func (e *Engine) endPass(sc *Scratch, t0 time.Time, kind string, batch int, pt *PassTrace) {
	t := e.tel
	t.passNS.Record(time.Since(t0).Nanoseconds())
	for i := range t.stageOps {
		if v := sc.stageOps[i]; v != 0 {
			t.stageOps[i].Add(v)
		}
	}
	if !sc.timed {
		if pt != nil {
			pt.Spans = pt.Spans[:0]
		}
		return
	}
	var off int64
	spans := sc.spans[:0]
	for i, h := range t.stageNS {
		d := sc.stageNS[i]
		h.Record(d)
		spans = append(spans, obs.Span{Name: t.names[i], StartNs: off, DurNs: d})
		off += d
	}
	if sc.requantNS > 0 {
		// Requantization is a sub-segment of the integer stages' time, not
		// additional time: overlay it at offset zero rather than extending
		// the cumulative layout.
		spans = append(spans, obs.Span{Name: "requant", StartNs: 0, DurNs: sc.requantNS})
	}
	sc.spans = spans
	sc.timed = false
	sc.timeRequant = false
	if pt != nil {
		pt.Spans = append(pt.Spans[:0], spans...)
	} else {
		t.reg.Ring().Push(kind, t0, batch, spans)
	}
}

// stepStages advances stages [lo, hi) one timestep, stage-major: each
// stage steps every arena's current activation (sc.cur) before the next
// stage runs. The telemetry-off path is the exact pre-telemetry loop. With
// telemetry on, per-stage SynOps summed over the arenas accumulate on the
// first, and on traced passes so does the wall-clock of each stage's loop.
func (e *Engine) stepStages(scs []*Scratch, lo, hi int) {
	t := e.tel
	if t == nil {
		for _, st := range e.stages[lo:hi] {
			for _, sc := range scs {
				sc.cur = st.step(sc, sc.cur)
			}
		}
		return
	}
	sc0 := scs[0]
	for si := lo; si < hi; si++ {
		st := e.stages[si]
		var start time.Time
		if sc0.timed {
			pprof.SetGoroutineLabels(t.labels[si])
			start = time.Now()
		}
		for _, sc := range scs {
			prevOps := sc.synOps
			sc.cur = st.step(sc, sc.cur)
			sc0.stageOps[si] += sc.synOps - prevOps
		}
		if sc0.timed {
			sc0.stageNS[si] += time.Since(start).Nanoseconds()
		}
	}
	if sc0.timed {
		pprof.SetGoroutineLabels(t.base)
	}
}

// creditPrefixStages scales the prefix stages' per-stage SynOps, tallied
// over their one evaluation at t=0, to all T timesteps, so that
// infer_stage_synops_total keeps counting the T-step network. Only call
// when beginPass reported telemetry active.
func (e *Engine) creditPrefixStages(sc *Scratch) {
	for i := range sc.stageOps[:e.prefix] {
		sc.stageOps[i] *= int64(e.T)
	}
}

// growInt64 returns a zeroed int64 buffer of length n, reusing buf's
// storage when it is large enough.
func growInt64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
