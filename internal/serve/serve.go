// Package serve is the multi-tenant serving layer over the compiled
// event-driven inference engine: one immutable engine (float or QCSR
// integer) shared by any number of concurrent callers, fronted by a
// coalescing queue with an explicit failure model.
//
// The serving primitive is request coalescing: concurrent single-sample
// Classify/Infer calls are batched into one stage-major engine pass
// (Engine.InferBatch), which traverses each stage's compiled weight tables
// while cache-hot for the whole batch. Because the
// batched pass preserves every sample's exact serial arithmetic, serving
// output is bit-identical to the serial single-caller engine.
//
// The lifecycle of a request:
//
//  1. Validation. Nil or mis-shaped samples fail fast with ErrBadRequest
//     before touching the queue — the compiled engine never sees them.
//  2. Admission. The queue is bounded (Config.MaxQueue); a full queue
//     fast-fails with ErrOverloaded instead of building unbounded latency —
//     callers shed load or retry with backoff (see Retry). With
//     Config.AdaptiveShed, a request whose deadline budget is smaller than
//     the EWMA-predicted queue wait is also shed with ErrOverloaded: work
//     that would expire anyway is refused before it costs anything. A
//     closed or draining server fails with ErrClosed.
//  3. Coalescing. A dispatcher goroutine takes the oldest request, then
//     greedily drains the queue up to Config.MaxBatch; if the batch is
//     underfull and Config.Linger > 0 it holds the batch open up to that
//     long for stragglers. Linger trades batch-1 latency for throughput.
//  4. Deadlines. Every request carries a context.Context. Expired requests
//     are dropped at dispatch (before any compute) with the context's
//     error; a caller whose context expires mid-flight unblocks immediately
//     with ctx.Err() while the already-admitted sample finishes its batch
//     (the result is discarded — the engine pass is not interruptible).
//  5. Execution. The live batch runs one InferBatch pass under panic
//     isolation: a panic anywhere in the engine is recovered, converted to
//     ErrInternal for exactly that batch's requests, and the pass's scratch
//     arenas are abandoned to the garbage collector instead of being
//     repooled (the engine only repools an arena after a pass completes
//     normally, so no possibly-poisoned state survives). The server keeps
//     serving.
//  6. Shutdown. Close stops admission and fails queued work immediately;
//     Drain stops admission but keeps dispatching until the queue and all
//     in-flight work are flushed or its context expires, then fails only
//     the stragglers. Both are idempotent and safe to combine.
//
// Every admitted request is counted exactly once at resolution — Served,
// ExpiredInQueue, ExpiredInFlight or Failed — so after shutdown
//
//	Admitted == Served + ExpiredInQueue + ExpiredInFlight + Failed
//
// holds exactly (Stats.Resolved). Submissions that were never admitted are
// counted separately as Rejected (queue full), Shed (adaptive), or Invalid
// (bad request). The chaos harness (chaos_test.go) asserts this
// conservation law with every fault site armed.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ndsnn/internal/fault"
	"ndsnn/internal/infer"
	"ndsnn/internal/obs"
	"ndsnn/internal/tensor"
)

// ErrOverloaded is returned by Infer/Classify when the admission queue is
// full, or when adaptive shedding predicts the request would miss its
// deadline in the queue — the fast-fail signal to shed or defer load.
var ErrOverloaded = errors.New("serve: queue full (over capacity)")

// ErrClosed is returned for requests submitted to (or stranded in) a closed
// or draining server.
var ErrClosed = errors.New("serve: server closed")

// ErrInternal is returned to every request of a batch whose engine pass
// panicked. The panic is isolated to that batch: the server keeps serving,
// and the pass's scratch arenas are discarded rather than repooled.
var ErrInternal = errors.New("serve: internal engine failure (batch isolated)")

// ErrBadRequest is returned for samples rejected by admission validation:
// nil tensors, empty data, or a shape that does not match the engine's
// input. Validation runs before the queue, so the compiled engine never
// panics on caller mistakes.
var ErrBadRequest = errors.New("serve: bad request")

// Fault-injection sites of the serving layer (no-ops unless armed; see
// internal/fault). The chaos harness arms each in turn and asserts the
// failure model holds.
var (
	// faultAdmit delays the admission path — a slow caller-side stall.
	faultAdmit = fault.New("serve.admit", fault.CanDelay)
	// faultBatch fires just before the engine pass: a panic or error here is
	// the serving layer's own failure, isolated exactly like an engine panic;
	// a delay models a descheduled dispatcher.
	faultBatch = fault.New("serve.batch", fault.CanPanic|fault.CanDelay|fault.CanError)
	// faultDeliver delays between compute and delivery — widens the window
	// where a caller's deadline expires mid-flight.
	faultDeliver = fault.New("serve.deliver", fault.CanDelay)
)

// Config tunes one Server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// MaxBatch caps how many queued single-sample requests coalesce into
	// one batched engine pass. 1 disables coalescing. Default 8.
	MaxBatch int
	// Linger is how long a dispatcher holds an underfull batch open waiting
	// for more requests. 0 (default) never waits: a batch is whatever the
	// queue holds at dispatch — under sustained load batches still fill,
	// because requests queue up while the previous pass computes.
	Linger time.Duration
	// MaxQueue bounds the admission queue; submissions beyond it fast-fail
	// with ErrOverloaded. Default 4×MaxBatch (at least MaxBatch).
	MaxQueue int
	// Workers is the number of dispatcher goroutines running batched engine
	// passes concurrently. Default GOMAXPROCS.
	Workers int
	// InputShape, when non-nil, is the exact sample shape admission
	// accepts; anything else fails with ErrBadRequest. Nil skips the shape
	// check (nil samples and empty data are always rejected).
	InputShape []int
	// AdaptiveShed enables deadline-aware admission shedding: the server
	// keeps an EWMA of realized queue wait, and a request whose context
	// deadline budget is below the predicted wait is rejected with
	// ErrOverloaded at admission — before it costs queue space or compute
	// it would only waste. Requests without a deadline are never shed.
	AdaptiveShed bool
	// Metrics, when non-nil, attaches telemetry: per-request queue-wait,
	// batch-assembly and compute histograms, admission-outcome counters, the
	// realized batch-size distribution, a queue-depth gauge, and sampled
	// request traces. Nil (the default) keeps the hot path free of clock
	// reads — every telemetry hook is one branch.
	Metrics *obs.Registry
	// TraceEvery samples full request traces: one batch in TraceEvery gets a
	// queue-wait/assembly/per-stage/compute span breakdown pushed to the
	// registry's trace ring. 0 defaults to DefaultTraceEvery; negative
	// disables tracing while keeping histograms and counters.
	TraceEvery int
}

// DefaultTraceEvery is the trace sampling period used when Config.Metrics
// is set and Config.TraceEvery is zero.
const DefaultTraceEvery = 8

// shedAlpha is the smoothing factor of the queue-wait EWMA behind
// Config.AdaptiveShed.
const shedAlpha = 0.2

// withDefaults normalizes a Config.
func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = 4 * c.MaxBatch
	}
	if c.MaxQueue < c.MaxBatch {
		c.MaxQueue = c.MaxBatch
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats is a snapshot of a server's counters. Admitted requests resolve
// exactly once (Served, ExpiredInQueue, ExpiredInFlight or Failed);
// submissions refused at admission count once under Rejected, Shed or
// Invalid and are never admitted.
type Stats struct {
	// Admitted counts requests accepted into the queue.
	Admitted int64
	// Served counts requests answered with scores.
	Served int64
	// Rejected counts admissions fast-failed with ErrOverloaded on a full
	// queue.
	Rejected int64
	// Shed counts admissions refused by adaptive shedding: the predicted
	// queue wait exceeded the request's deadline budget (also
	// ErrOverloaded).
	Shed int64
	// Invalid counts admissions refused with ErrBadRequest.
	Invalid int64
	// ExpiredInQueue counts requests dropped at dispatch because their
	// context was already done (deadline exceeded or canceled before any
	// compute was spent on them).
	ExpiredInQueue int64
	// ExpiredInFlight counts requests whose context expired while their
	// batch was computing: the caller already unblocked with ctx.Err(), the
	// computed result was discarded at delivery. A high value means
	// deadlines are tighter than a batched pass — compute spent for nothing.
	ExpiredInFlight int64
	// Failed counts admitted requests resolved with an error that is not a
	// deadline: batch-isolated engine panics (ErrInternal) and requests
	// stranded at Close/Drain (ErrClosed).
	Failed int64
	// Panics counts engine passes that panicked (each fails a whole batch;
	// Failed counts the per-request fallout).
	Panics int64
	// Retries counts backoff re-submissions made through InferRetry.
	Retries int64
	// Batches counts completed engine passes; BatchedSamples counts the
	// samples they carried. BatchedSamples/Batches is the realized
	// coalescing factor. Panicked passes count in neither.
	Batches        int64
	BatchedSamples int64
	// DrainClean / DrainForced / DrainStragglers record Drain outcomes:
	// drains that flushed everything, drains cut short by their context,
	// and the queued requests those failed.
	DrainClean      int64
	DrainForced     int64
	DrainStragglers int64
}

// Expired returns all deadline-expired requests, wherever the deadline
// caught them.
func (s Stats) Expired() int64 { return s.ExpiredInQueue + s.ExpiredInFlight }

// Resolved returns the admitted requests that have been counted to a final
// outcome. After Close or Drain returns, Resolved() == Admitted — the
// conservation law the chaos harness asserts under every injected fault.
func (s Stats) Resolved() int64 {
	return s.Served + s.ExpiredInQueue + s.ExpiredInFlight + s.Failed
}

// MeanBatch returns the realized mean coalesced batch size (0 before any
// pass).
func (s Stats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedSamples) / float64(s.Batches)
}

// request is one queued inference.
type request struct {
	ctx    context.Context
	sample *tensor.Tensor
	done   chan response // buffered(1): dispatcher never blocks on delivery
	enq    time.Time     // enqueue instant; stamped with telemetry or shedding on
}

type response struct {
	scores []float32
	err    error
}

// Server fronts one compiled engine with admission control and request
// coalescing. All methods are safe for concurrent use.
type Server struct {
	eng   *infer.Engine
	cfg   Config
	queue chan *request
	stop  chan struct{}
	once  sync.Once // guards close(stop)
	wg    sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	admitted, served, rejected, shed, invalid atomic.Int64
	expiredQueue, expiredFlight, failed       atomic.Int64
	panics, retries, batches, batched         atomic.Int64
	drainClean, drainForced, drainStrag       atomic.Int64

	// waitEWMA is the exponentially-weighted moving average of realized
	// queue wait in nanoseconds — the adaptive shedder's predictor. Updated
	// with plain atomic store (a lost update only delays convergence).
	waitEWMA atomic.Int64

	tel *telemetry // nil unless Config.Metrics is set
}

// New starts a server over a compiled engine. The engine must not be
// recompiled or mutated while serving (engines are immutable plans, so this
// only rules out swapping the pointer's target). Callers own the engine and
// may share it with other servers or direct Infer callers — all outputs
// remain bit-identical.
func New(eng *infer.Engine, cfg Config) *Server {
	s := &Server{
		eng:  eng,
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
	}
	s.queue = make(chan *request, s.cfg.MaxQueue)
	s.initTelemetry()
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.dispatch()
	}
	return s
}

// Config returns the normalized configuration the server runs with.
func (s *Server) Config() Config { return s.cfg }

// Healthy reports whether the server is accepting requests: true until
// Close or Drain stops admission. Exported as the serve_healthy gauge when
// telemetry is attached — the readiness signal a load balancer should poll.
func (s *Server) Healthy() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.closed
}

// validate applies admission validation: nil/empty samples and (when
// Config.InputShape is set) shape mismatches fail with ErrBadRequest.
func (s *Server) validate(sample *tensor.Tensor) error {
	if sample == nil || len(sample.Data) == 0 {
		return fmt.Errorf("%w: nil or empty sample", ErrBadRequest)
	}
	if want := s.cfg.InputShape; want != nil {
		if sample.NumDims() != len(want) {
			return fmt.Errorf("%w: sample has %d dims, engine input wants %v", ErrBadRequest, sample.NumDims(), want)
		}
		for i, d := range want {
			if sample.Dim(i) != d {
				return fmt.Errorf("%w: sample dim %d is %d, engine input wants %v", ErrBadRequest, i, sample.Dim(i), want)
			}
		}
	}
	return nil
}

// shouldShed reports whether adaptive shedding refuses this request: its
// deadline budget is smaller than the EWMA-predicted queue wait, so it
// would expire in the queue with near-certainty.
func (s *Server) shouldShed(ctx context.Context) bool {
	if !s.cfg.AdaptiveShed {
		return false
	}
	predicted := s.waitEWMA.Load()
	if predicted <= 0 {
		return false // cold start: no evidence yet, admit
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return false // no deadline, nothing to protect
	}
	return time.Until(deadline) < time.Duration(predicted)
}

// WaitPrediction returns the shedder's current predicted queue wait — the
// EWMA of realized waits that admission compares deadline budgets against.
// Zero until the first dispatch (or when AdaptiveShed is off). Also exported
// as the serve_shed_predicted_wait_ns gauge when metrics are on.
func (s *Server) WaitPrediction() time.Duration {
	return time.Duration(s.waitEWMA.Load())
}

// observeWait folds one realized queue wait into the shedding predictor.
func (s *Server) observeWait(wait time.Duration) {
	if !s.cfg.AdaptiveShed {
		return
	}
	w := wait.Nanoseconds()
	if w < 0 {
		w = 0
	}
	old := s.waitEWMA.Load()
	if old == 0 {
		s.waitEWMA.Store(w)
		return
	}
	a := shedAlpha
	s.waitEWMA.Store(int64(a*float64(w) + (1-a)*float64(old)))
}

// Infer submits one sample (shape [C,H,W], direct encoding) and blocks
// until its scores are ready, its context expires, or admission fails. The
// returned slice is owned by the caller.
func (s *Server) Infer(ctx context.Context, sample *tensor.Tensor) ([]float32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.validate(sample); err != nil {
		s.invalid.Add(1)
		return nil, err
	}
	faultAdmit.Fire()
	if s.shouldShed(ctx) {
		s.shed.Add(1)
		return nil, ErrOverloaded
	}
	req := &request{ctx: ctx, sample: sample, done: make(chan response, 1)}
	if s.tel != nil || s.cfg.AdaptiveShed {
		req.enq = time.Now()
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	// Admitted is incremented before the enqueue (and rolled back on a full
	// queue) so Admitted ≥ in-system holds at every instant — the invariant
	// Drain's quiescence check rests on.
	s.admitted.Add(1)
	select {
	case s.queue <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.admitted.Add(-1)
		s.rejected.Add(1)
		return nil, ErrOverloaded
	}
	select {
	case resp := <-req.done:
		return resp.scores, resp.err
	case <-ctx.Done():
		// The sample may still ride its batch; the buffered done channel
		// absorbs the late (discarded) result.
		return nil, ctx.Err()
	}
}

// Classify submits one sample and returns its argmax class.
func (s *Server) Classify(ctx context.Context, sample *tensor.Tensor) (int, error) {
	scores, err := s.Infer(ctx, sample)
	if err != nil {
		return 0, err
	}
	best, bestIdx := scores[0], 0
	for i, v := range scores[1:] {
		if v > best {
			best = v
			bestIdx = i + 1
		}
	}
	return bestIdx, nil
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Admitted:        s.admitted.Load(),
		Served:          s.served.Load(),
		Rejected:        s.rejected.Load(),
		Shed:            s.shed.Load(),
		Invalid:         s.invalid.Load(),
		ExpiredInQueue:  s.expiredQueue.Load(),
		ExpiredInFlight: s.expiredFlight.Load(),
		Failed:          s.failed.Load(),
		Panics:          s.panics.Load(),
		Retries:         s.retries.Load(),
		Batches:         s.batches.Load(),
		BatchedSamples:  s.batched.Load(),
		DrainClean:      s.drainClean.Load(),
		DrainForced:     s.drainForced.Load(),
		DrainStragglers: s.drainStrag.Load(),
	}
}

// markClosed stops admission. Idempotent.
func (s *Server) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// shutdown stops the dispatchers, waits for in-flight batches, and fails
// anything still queued with ErrClosed. Safe to call more than once and
// from concurrent goroutines; returns how many stragglers this call failed.
func (s *Server) shutdown() int64 {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	// Workers are gone; anything still queued was admitted before the flag
	// flipped and gets a definitive error.
	var n int64
	for {
		select {
		case req := <-s.queue:
			n++
			s.failed.Add(1)
			req.done <- response{err: ErrClosed}
		default:
			return n
		}
	}
}

// Close stops admission, waits for in-flight batches to finish, and fails
// any still-queued requests with ErrClosed (counted as Failed). Idempotent,
// and safe to call after (or concurrently with) Drain.
func (s *Server) Close() {
	s.markClosed()
	s.shutdown()
}

// DrainResult reports how a Drain ended.
type DrainResult struct {
	// Clean is true when the queue and all in-flight work were fully
	// flushed before ctx expired: every admitted request resolved with its
	// natural outcome and nothing was failed by the drain itself.
	Clean bool
	// Stragglers counts queued requests failed with ErrClosed because ctx
	// expired first.
	Stragglers int64
}

// Drain gracefully shuts the server down: admission stops immediately (new
// submissions fail with ErrClosed), dispatchers keep flushing the queue,
// and Drain blocks until every admitted request has resolved or ctx
// expires — whichever comes first. Stragglers still queued at expiry are
// failed with ErrClosed; an in-flight engine pass always runs to completion
// (passes are not interruptible). Idempotent with itself and with Close: a
// second Drain or a following Close finds nothing left to do.
func (s *Server) Drain(ctx context.Context) DrainResult {
	s.markClosed()
	clean := s.awaitQuiesce(ctx)
	n := s.shutdown()
	res := DrainResult{Clean: clean && n == 0, Stragglers: n}
	if res.Clean {
		s.drainClean.Add(1)
	} else {
		s.drainForced.Add(1)
		s.drainStrag.Add(n)
	}
	return res
}

// awaitQuiesce blocks until every admitted request has resolved (true) or
// ctx expires (false). The quiet condition is checked before the context so
// a Drain with an already-expired context still reports an already-quiet
// server as clean.
func (s *Server) awaitQuiesce(ctx context.Context) bool {
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		if len(s.queue) == 0 && s.Stats().Resolved() == s.admitted.Load() {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-tick.C:
		}
	}
}

// dispatch is one worker loop: pull the oldest request, coalesce, run. Each
// worker owns a dispatchScratch so trace collection reuses its buffers.
func (s *Server) dispatch() {
	defer s.wg.Done()
	var ds *dispatchScratch
	if s.tel != nil {
		ds = &dispatchScratch{}
	}
	for {
		select {
		case <-s.stop:
			return
		case req := <-s.queue:
			var t0 time.Time
			if s.tel != nil {
				t0 = time.Now()
			}
			s.runBatch(s.coalesce(req), t0, ds)
		}
	}
}

// coalesce gathers up to MaxBatch requests around the first: an immediate
// greedy drain, then (if underfull and Linger > 0) a bounded wait for
// stragglers.
func (s *Server) coalesce(first *request) []*request {
	batch := make([]*request, 1, s.cfg.MaxBatch)
	batch[0] = first
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.queue:
			batch = append(batch, r)
			continue
		default:
		}
		break
	}
	if len(batch) >= s.cfg.MaxBatch || s.cfg.Linger <= 0 {
		return batch
	}
	timer := time.NewTimer(s.cfg.Linger)
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.queue:
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-s.stop:
			return batch
		}
	}
	return batch
}

// computeBatch runs one engine pass under panic isolation: a panic anywhere
// below (an engine stage, or the serve.batch fault site standing in for
// one) is recovered and converted to ErrInternal, and the pass's scratch
// arenas are left to the garbage collector — infer only repools an arena
// after its pass completes, so a panic can never leak poisoned state into
// the pool.
func (s *Server) computeBatch(samples []*tensor.Tensor, traced bool, ds *dispatchScratch) (outs [][]float32, err error) {
	defer func() {
		if r := recover(); r != nil {
			outs, err = nil, fmt.Errorf("%w: %v", ErrInternal, r)
		}
	}()
	if ferr := faultBatch.Err(); ferr != nil {
		return nil, fmt.Errorf("%w: %v", ErrInternal, ferr)
	}
	if traced {
		return s.eng.InferBatchTraced(samples, &ds.pt), nil
	}
	return s.eng.InferBatch(samples), nil
}

// runBatch drops expired requests, runs the survivors as one stage-major
// engine pass under panic isolation, and resolves each caller exactly once:
// scores (Served), the context's error (ExpiredInFlight), or ErrInternal
// for the whole batch if the pass panicked (Failed). t0 is the dispatch
// instant (zero when telemetry is off); ds is the worker's reused trace
// scratch (nil when telemetry is off).
func (s *Server) runBatch(batch []*request, t0 time.Time, ds *dispatchScratch) {
	tel := s.tel
	var tStart time.Time
	if tel != nil || s.cfg.AdaptiveShed {
		tStart = time.Now()
	}
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			s.expiredQueue.Add(1)
			r.done <- response{err: err}
			continue
		}
		if tel != nil {
			tel.queueWait.Record(tStart.Sub(r.enq).Nanoseconds())
		}
		s.observeWait(tStart.Sub(r.enq))
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	samples := make([]*tensor.Tensor, len(live))
	for i, r := range live {
		samples[i] = r.sample
	}
	traced := tel != nil && ds != nil && tel.sample()
	outs, err := s.computeBatch(samples, traced, ds)
	if err != nil {
		// Panic isolation: exactly this batch fails; the server keeps
		// serving. Requests whose deadline expired during the doomed pass
		// still count as expired, not failed — their callers saw ctx.Err().
		s.panics.Add(1)
		for _, r := range live {
			if cerr := r.ctx.Err(); cerr != nil {
				s.expiredFlight.Add(1)
				r.done <- response{err: cerr}
			} else {
				s.failed.Add(1)
				r.done <- response{err: err}
			}
		}
		return
	}
	if tel != nil {
		computeNS := time.Since(tStart).Nanoseconds()
		tel.assembly.Record(tStart.Sub(t0).Nanoseconds())
		tel.compute.Record(computeNS)
		tel.batchSize.Record(int64(len(live)))
		if traced {
			s.pushTrace(ds, live[0], t0, tStart, computeNS, len(live))
		}
	}
	faultDeliver.Fire()
	// Count the batch before any reply goes out: a caller holding its reply
	// must find its sample in Stats().
	s.batches.Add(1)
	s.batched.Add(int64(len(live)))
	for i, r := range live {
		if cerr := r.ctx.Err(); cerr != nil {
			// The caller already unblocked with ctx.Err(); the buffered done
			// channel absorbs the discarded result.
			s.expiredFlight.Add(1)
			r.done <- response{err: cerr}
		} else {
			s.served.Add(1)
			r.done <- response{scores: outs[i]}
		}
	}
}
