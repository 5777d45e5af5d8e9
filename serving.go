package ndsnn

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"ndsnn/internal/infer"
	"ndsnn/internal/obs"
	"ndsnn/internal/serve"
	"ndsnn/internal/tensor"
)

// ErrServerOverloaded is returned by Server.Infer/Classify when the
// admission queue is full, or when adaptive shedding predicts the request
// would miss its deadline waiting — shed load or retry with backoff
// (Server.InferRetry).
var ErrServerOverloaded = serve.ErrOverloaded

// ErrServerClosed is returned for requests submitted to a closed or draining
// Server.
var ErrServerClosed = serve.ErrClosed

// ErrServerInternal is returned to every request of a batch whose engine
// pass panicked. The failure is isolated to that batch — the server keeps
// serving, and the pass's scratch state is discarded, never reused.
var ErrServerInternal = serve.ErrInternal

// ErrServerBadRequest is returned for nil, empty or mis-shaped samples,
// refused at admission before the compiled engine could panic on them.
var ErrServerBadRequest = serve.ErrBadRequest

// RetryPolicy tunes Server.InferRetry's jittered exponential backoff. The
// zero value is usable (4 attempts, 1ms base doubling to a 128ms cap,
// seeded jitter).
type RetryPolicy = serve.RetryPolicy

// DrainResult reports how a Server.Drain ended: Clean when everything
// flushed before the context expired, otherwise the straggler count.
type DrainResult = serve.DrainResult

// ServingConfig tunes a model server. The zero value is usable: a float32
// engine with default batching, queue depth and worker count.
type ServingConfig struct {
	// Bits selects the engine precision: 0 compiles the float32 engine,
	// 2..16 the packed QCSR integer engine (see CompileQuantizedInference).
	Bits int
	// ActivationBits, when nonzero (2..16, requires Bits), also quantizes
	// activations onto power-of-two grids — the fully-integer serving path
	// (see CompileQuantizedInferenceConfig).
	ActivationBits int
	// FullInteger makes the integer claim a compile-time guarantee:
	// CompileServer fails if any compute stage would still run float
	// synaptic arithmetic. Implies ActivationBits=8 when unset.
	FullInteger bool
	// MaxBatch caps how many queued single-sample requests coalesce into one
	// batched engine pass. 1 disables coalescing. Default 8.
	MaxBatch int
	// Linger is how long a dispatcher holds an underfull batch open waiting
	// for more requests. 0 (default) dispatches whatever the queue holds.
	Linger time.Duration
	// MaxQueue bounds the admission queue; submissions beyond it fast-fail
	// with ErrServerOverloaded. Default 4×MaxBatch.
	MaxQueue int
	// Workers is the number of dispatcher goroutines. Default GOMAXPROCS.
	Workers int
	// AdaptiveShed enables deadline-aware admission shedding: the server
	// tracks an EWMA of realized queue wait and refuses requests whose
	// context deadline budget is below the predicted wait with
	// ErrServerOverloaded — before they cost queue space or compute that
	// would be wasted anyway. Requests without a deadline are never shed.
	AdaptiveShed bool
	// Metrics enables telemetry: request latency histograms, admission
	// counters, per-stage engine timings and sampled request traces, all
	// readable via Server.Metrics and Server.MetricsHandler. Off (false) by
	// default — the hot path then carries no clock reads.
	Metrics bool
	// TraceEvery samples full request traces when Metrics is on: one batch
	// in TraceEvery gets a span breakdown (queue wait, assembly, per-stage
	// compute, requantization). 0 defaults to 8; negative disables tracing.
	TraceEvery int
}

// ServingStats is a snapshot of a server's counters. Admitted requests
// resolve exactly once — Served, ExpiredInQueue, ExpiredInFlight or Failed —
// so after Close or Drain, Admitted == Resolved(). Refusals at admission
// (Rejected, Shed, Invalid) are never admitted.
type ServingStats struct {
	Admitted        int64 // requests accepted into the queue
	Served          int64 // requests answered with scores
	Rejected        int64 // fast-failed with ErrServerOverloaded (queue full)
	Shed            int64 // refused by adaptive shedding (also ErrServerOverloaded)
	Invalid         int64 // refused with ErrServerBadRequest
	ExpiredInQueue  int64 // dropped at dispatch on an already-done context
	ExpiredInFlight int64 // context expired mid-batch; computed result discarded
	Failed          int64 // resolved with ErrServerInternal or ErrServerClosed
	Panics          int64 // engine passes isolated after a panic
	Retries         int64 // backoff re-submissions through InferRetry
	Batches         int64 // coalesced engine passes
	BatchedSamples  int64 // samples those passes carried
	MeanBatch       float64
	DrainClean      int64 // drains that flushed everything
	DrainForced     int64 // drains cut short by their context
	DrainStragglers int64 // queued requests those drains failed
}

// Expired returns all deadline-expired requests, wherever the deadline
// caught them.
func (s ServingStats) Expired() int64 { return s.ExpiredInQueue + s.ExpiredInFlight }

// Resolved returns the admitted requests counted to a final outcome; equal
// to Admitted once the server has shut down.
func (s ServingStats) Resolved() int64 {
	return s.Served + s.ExpiredInQueue + s.ExpiredInFlight + s.Failed
}

// Server is a multi-tenant serving handle over one compiled event-driven
// engine: any number of goroutines may call Infer/Classify concurrently;
// requests queued together coalesce into one batched engine pass. Outputs
// are bit-identical to the serial single-caller engine.
type Server struct {
	srv *serve.Server
	reg *obs.Registry // nil unless ServingConfig.Metrics
}

// CompileServer compiles the trained model into an event-driven engine
// (float32 or QCSR integer, per cfg.Bits) and starts a serving layer over
// it. Close the server to release its dispatchers.
func (m *Model) CompileServer(cfg ServingConfig) (*Server, error) {
	var (
		eng *infer.Engine
		err error
	)
	if cfg.Bits == 0 {
		eng, err = infer.Compile(m.net)
	} else {
		eng, err = infer.CompileQuantizedConfig(m.net, infer.QuantConfig{
			WeightBits:     cfg.Bits,
			ActivationBits: cfg.ActivationBits,
			FullInteger:    cfg.FullInteger,
		})
	}
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.New()
		eng.EnableTelemetry(reg, cfg.TraceEvery)
	}
	// Admission validates against the model's native sample shape, so caller
	// mistakes fail with ErrServerBadRequest instead of panicking the engine.
	var inputShape []int
	if m.dataset != nil {
		inputShape = []int{m.dataset.Config.C, m.dataset.Config.H, m.dataset.Config.W}
	}
	srv := serve.New(eng, serve.Config{
		MaxBatch:     cfg.MaxBatch,
		Linger:       cfg.Linger,
		MaxQueue:     cfg.MaxQueue,
		Workers:      cfg.Workers,
		InputShape:   inputShape,
		AdaptiveShed: cfg.AdaptiveShed,
		Metrics:      reg,
		TraceEvery:   cfg.TraceEvery,
	})
	return &Server{srv: srv, reg: reg}, nil
}

// sampleTensor validates a caller's raw sample against its declared shape
// and wraps it without copying. Mismatches are ErrServerBadRequest — the
// serving boundary never panics on caller mistakes.
func sampleTensor(sample []float32, c, h, w int) (*tensor.Tensor, error) {
	if c <= 0 || h <= 0 || w <= 0 {
		return nil, fmt.Errorf("%w: non-positive shape [%d,%d,%d]", serve.ErrBadRequest, c, h, w)
	}
	if len(sample) != c*h*w {
		return nil, fmt.Errorf("%w: %d values for shape [%d,%d,%d] (%d elements)", serve.ErrBadRequest, len(sample), c, h, w, c*h*w)
	}
	return tensor.FromSlice(sample, c, h, w), nil
}

// Infer submits one sample image laid out [C,H,W] and blocks until its class
// scores are ready, ctx expires, or admission fast-fails. Safe for
// concurrent use; the returned slice is owned by the caller.
func (s *Server) Infer(ctx context.Context, sample []float32, c, h, w int) ([]float32, error) {
	t, err := sampleTensor(sample, c, h, w)
	if err != nil {
		return nil, err
	}
	return s.srv.Infer(ctx, t)
}

// Classify submits one sample image laid out [C,H,W] and returns its
// predicted class.
func (s *Server) Classify(ctx context.Context, sample []float32, c, h, w int) (int, error) {
	t, err := sampleTensor(sample, c, h, w)
	if err != nil {
		return 0, err
	}
	return s.srv.Classify(ctx, t)
}

// InferRetry is Infer with jittered-exponential-backoff retry on overload:
// shed or queue-full submissions are re-tried per policy (and counted in
// ServingStats.Retries); every other outcome passes straight through. The
// context bounds the whole loop, backoff sleeps included.
func (s *Server) InferRetry(ctx context.Context, p RetryPolicy, sample []float32, c, h, w int) ([]float32, error) {
	t, err := sampleTensor(sample, c, h, w)
	if err != nil {
		return nil, err
	}
	return s.srv.InferRetry(ctx, p, t)
}

// Healthy reports whether the server is accepting requests: true until Close
// or Drain stops admission — the readiness signal a load balancer should
// poll (also exported as the serve_healthy gauge when Metrics is on).
func (s *Server) Healthy() bool { return s.srv.Healthy() }

// Drain gracefully shuts the server down: admission stops immediately,
// queued and in-flight work keeps flushing until everything has resolved or
// ctx expires, and only then are stragglers failed with ErrServerClosed.
// Idempotent with itself and with Close.
func (s *Server) Drain(ctx context.Context) DrainResult { return s.srv.Drain(ctx) }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServingStats {
	st := s.srv.Stats()
	return ServingStats{
		Admitted:        st.Admitted,
		Served:          st.Served,
		Rejected:        st.Rejected,
		Shed:            st.Shed,
		Invalid:         st.Invalid,
		ExpiredInQueue:  st.ExpiredInQueue,
		ExpiredInFlight: st.ExpiredInFlight,
		Failed:          st.Failed,
		Panics:          st.Panics,
		Retries:         st.Retries,
		Batches:         st.Batches,
		BatchedSamples:  st.BatchedSamples,
		MeanBatch:       st.MeanBatch(),
		DrainClean:      st.DrainClean,
		DrainForced:     st.DrainForced,
		DrainStragglers: st.DrainStragglers,
	}
}

// Metrics returns a typed snapshot of the server's telemetry: latency and
// batch-size histograms with p50/p90/p99, admission counters, per-stage
// engine timings and SynOps, and the most recent sampled request traces.
// Empty unless the server was built with ServingConfig.Metrics.
func (s *Server) Metrics() MetricsSnapshot { return s.reg.Snapshot() }

// MetricsHandler returns an http.Handler exposing the server's telemetry:
// Prometheus text format at "/" and "/metrics", the typed JSON snapshot at
// "/metrics.json" (the endpoint `ndsnn-inspect metrics` reads). The caller
// decides whether and where to mount it — the server never opens sockets on
// its own. Serves 404s unless the server was built with
// ServingConfig.Metrics.
func (s *Server) MetricsHandler() http.Handler { return obs.Handler(s.reg) }

// Close stops admission, waits for in-flight batches, and fails still-queued
// requests with ErrServerClosed. Idempotent.
func (s *Server) Close() { s.srv.Close() }
