package infer

import "ndsnn/internal/obs"

// The engine's re-entrancy split: a compiled Engine is an immutable plan
// (weight tables, folded affines) shared by any number of concurrent
// callers, while every piece of mutable per-request state lives in a
// Scratch arena. The compiler assigns each stage fixed slot indices into
// the arena at compile time, so a request's entire working set — the
// activation buffers flowing between stages, their event lists, LIF
// membrane state, integer accumulators — is carried by one heap object
// that a sync.Pool recycles across requests.
// Steady-state inference therefore allocates (almost) nothing: event-list
// and buffer capacity established by the first few requests is reused by
// every later one (pinned by TestInferAllocsSteadyState).

// Scratch is the per-request mutable arena of one engine. A Scratch belongs
// to exactly one in-flight request at a time; distinct goroutines use
// distinct arenas (Engine.Infer and Engine.InferBatch manage a pool
// internally). A Scratch is engine-specific: using it with a different
// engine than the one that created it is invalid.
type Scratch struct {
	acts   []act      // activation slots, one per producing stage
	lif    []lifState // membrane-state slots, one per LIF stage
	ints   [][]int32  // int32 slots: the integer stages' accumulators
	input  act        // the network input (aliases the sample, owns its event list)
	cur    *act       // the activation entering the next stage of the pass
	pre    *act       // the time-invariant prefix's output, computed at t=0
	avg    []float32  // time-averaged output accumulator
	synOps int64      // request-local SynOps, rolled into the engine atomically

	// Telemetry accumulators (see telemetry.go). Sized lazily by beginPass
	// when the engine has telemetry enabled; a warm arena reuses them, so
	// telemetry-on steady state stays allocation-free.
	stageOps    []int64    // per-stage SynOps of the current pass
	stageNS     []int64    // per-stage wall-clock ns (traced passes only)
	spans       []obs.Span // reused span buffer for trace flushes
	requantNS   int64      // requantization sub-timing of the integer stages
	timed       bool       // this pass carries per-stage wall-clock tracing
	timeRequant bool       // the integer stages time their requant affines
	fresh       bool       // arena was just allocated (pool-miss accounting)
}

// lifState is one LIF stage's per-request temporal state.
type lifState struct {
	v, oPrev []float32
}

// NewScratch allocates an arena sized for this engine's compiled slot
// layout. Buffers inside it grow lazily on first use and are retained for
// reuse. Most callers never need this: Infer and InferBatch draw arenas
// from the engine's internal pool.
func (e *Engine) NewScratch() *Scratch {
	return &Scratch{
		acts:  make([]act, e.nAct),
		lif:   make([]lifState, e.nLIF),
		ints:  make([][]int32, e.nInt),
		fresh: true,
	}
}

// begin resets the arena's temporal state for a fresh request: membrane
// state zeroes in place (keeping capacity), the SynOps tally restarts, and
// the output accumulator empties. Activation and integer slots need no
// reset — every stage fully (re)initializes its slot each step.
func (sc *Scratch) begin() {
	for i := range sc.lif {
		zeroFloat32(sc.lif[i].v)
		zeroFloat32(sc.lif[i].oPrev)
	}
	sc.avg = sc.avg[:0]
	sc.synOps = 0
}

// actAt returns slot's activation buffer resized to n and zeroed, with an
// empty event list (capacity retained).
func (sc *Scratch) actAt(slot, n int) *act {
	a := &sc.acts[slot]
	if cap(a.data) < n {
		a.data = make([]float32, n)
	} else {
		a.data = a.data[:n]
		zeroFloat32(a.data)
	}
	a.events = a.events[:0]
	return a
}

// actBuf3 returns slot's activation buffer shaped [c,h,w], zeroed.
func (sc *Scratch) actBuf3(slot, c, h, w int) *act {
	a := sc.actAt(slot, c*h*w)
	a.shape = append(a.shape[:0], c, h, w)
	return a
}

// actBuf1 returns slot's activation buffer shaped [n], zeroed.
func (sc *Scratch) actBuf1(slot, n int) *act {
	a := sc.actAt(slot, n)
	a.shape = append(a.shape[:0], n)
	return a
}

// actBufShape returns slot's activation buffer with a copy of shape, zeroed.
func (sc *Scratch) actBufShape(slot int, shape []int) *act {
	n := 1
	for _, d := range shape {
		n *= d
	}
	a := sc.actAt(slot, n)
	a.shape = append(a.shape[:0], shape...)
	return a
}

// int32Buf returns slot's int32 buffer resized to n and zeroed.
func (sc *Scratch) int32Buf(slot, n int) []int32 {
	buf := sc.ints[slot]
	if cap(buf) < n {
		buf = make([]int32, n)
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
	}
	sc.ints[slot] = buf
	return buf
}

// lifBuf returns slot's membrane-state pair sized to n. Within a request the
// size is stable and state persists across timesteps; a size change (first
// use, or a different input geometry than the arena last served) reallocates
// zeroed state.
func (sc *Scratch) lifBuf(slot, n int) (v, oPrev []float32) {
	st := &sc.lif[slot]
	if len(st.v) != n {
		if cap(st.v) >= n && cap(st.oPrev) >= n {
			st.v = st.v[:n]
			st.oPrev = st.oPrev[:n]
			zeroFloat32(st.v)
			zeroFloat32(st.oPrev)
		} else {
			st.v = make([]float32, n)
			st.oPrev = make([]float32, n)
		}
	}
	return st.v, st.oPrev
}

func zeroFloat32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// growFloat32 returns a zeroed float32 buffer of length n, reusing buf's
// storage when it is large enough.
func growFloat32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	buf = buf[:n]
	zeroFloat32(buf)
	return buf
}
