package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"ndsnn"
	"ndsnn/internal/bench"
	"ndsnn/internal/core"
	"ndsnn/internal/data"
	"ndsnn/internal/infer"
	"ndsnn/internal/obs"
	"ndsnn/internal/serve"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
)

// sizes holds every size a run depends on, so the smoke test can run the
// same code at unit scale.
type sizes struct {
	// train is the train workload's configuration.
	train trainSpec
	// deployed is the model the serve workloads train in set-up and serve;
	// deployedScale is the bench.Scale its Scale names.
	deployed      ndsnn.Config
	deployedScale bench.Scale
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps int
	// probe is how long the train workload's traced run serves the model it
	// trained, for each of the two serving phases, in segments of
	// probeRequests.
	probe time.Duration
	// corruptReference flips one bit of one serial-engine reply, so the
	// correctness gate must trip (smoke test only).
	corruptReference bool
}

var benchSizes = sizes{
	// Learning starts after a plateau at chance whose length depends on the
	// seed. At the bench scale's ResNet-19 rate, 0.1, a third of the seeds
	// tried were still on it after three epochs; at its VGG-16 rate, 0.2,
	// one in sixteen was. Four epochs at 0.2 give the plateau room.
	train: trainSpec{arch: "resnet19", scale: bench.ScaleBench, epochs: 4, timesteps: 5, sparsity: 0.9, lr: 0.2},
	deployed: ndsnn.Config{
		Method: ndsnn.NDSNN, Arch: "vgg16", Dataset: bench.CIFAR10,
		Scale: "unit", Timesteps: 5, Sparsity: 0.9, Seed: 1,
	},
	deployedScale: bench.ScaleUnit,
	setupReps:     5,
	probe:         time.Second,
}

// trainSetupScale multiplies the train workload's set-up repetitions. Its
// set-up takes about 0.1 s, so five repetitions would all fall in the first
// half second of the process, while the CPU is still speeding up; fifteen
// put the median past it.
const trainSetupScale = 3

// Fixed seeds of the train workload: the dataset and the initial weights
// are the same in every run; --seed drives mask initialization and data
// order.
const (
	trainDataSeed = 1000
	trainNetSeed  = 7
)

// probeRequests is the segment length of the train workload's serving
// probe: ResNet-19 serves about 270 req/s, so a segment takes about 1 s.
const probeRequests = 270

// clients is the closed loop's client count: never more than the cores, so
// the load generator measures the server rather than the Go scheduler.
func clients() int {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return n
	}
	return 2
}

// trainCall is one timed core.TrainNDSNN call (or its traced replica).
type trainCall struct {
	wall time.Duration
	out  *core.Outcome
	net  *snn.Network
}

func (c trainCall) epoch() time.Duration { return c.wall / time.Duration(len(c.out.History)) }

// trainCalls trains fresh networks back to back, each call with its own seed
// derived from seed, for about d and at least once: it stops when one more
// call would likely end further past d than stopping now falls short of it.
// The same seed gives the same sequence of calls, traced or not.
func trainCalls(spec trainSpec, ds *data.Dataset, seed uint64, d time.Duration, spans *trainSpans) ([]trainCall, windowStats, error) {
	var calls []trainCall
	w := openWindow()
	for i := 0; ; i++ {
		s := seed*1_000_003 + uint64(i) + 1
		net := spec.network(ds, trainNetSeed)
		t0 := time.Now()
		var out *core.Outcome
		var err error
		if spans == nil {
			out, err = core.TrainNDSNN(net, ds, spec.common(s), spec.config())
		} else {
			out, err = tracedNDSNN(net, ds, spec.common(s), spec.config(), spans)
		}
		wall := time.Since(t0)
		if err != nil {
			return calls, w.close(), fmt.Errorf("training call %d: %w", i, err)
		}
		calls = append(calls, trainCall{wall, out, net})
		elapsed := time.Since(w.start)
		if elapsed+elapsed/time.Duration(2*len(calls)) > d {
			return calls, w.close(), nil
		}
	}
}

// runtimeMetrics reports the garbage collector's work over the whole run so
// far, the collections forced before each measured window included: a
// window of light serving load, opened right after one, can pass without a
// collection of its own.
func runtimeMetrics(m map[string]metric) {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	m["runtime.gc_pauses_ms"] = metric{ms(time.Duration(st.PauseTotalNs)), "ms"}
	m["runtime.num_gc"] = metric{float64(st.NumGC), "count"}
}

// runTrain is train-resnet19-t5: core.TrainNDSNN on ResNet-19 over the
// bench-scale CIFAR-10 proxy. Its traced run repeats the training through
// the traced replica, then compiles and serves the trained model for the
// serving-layer metrics.
func runTrain(o options, sz sizes) (*report, error) {
	spec := sz.train
	rep := &report{metrics: map[string]metric{}}
	var setups []float64
	var ds *data.Dataset
	for i := 0; i < trainSetupScale*sz.setupReps; i++ {
		t0 := time.Now()
		ds = spec.dataset(trainDataSeed)
		spec.network(ds, trainNetSeed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	d := o.seconds
	if o.trace {
		d /= 2
	}
	calls, win, err := trainCalls(spec, ds, o.seed, d, nil)
	rep.attempted = int64(len(calls))
	if err != nil {
		rep.attempted++
		rep.failed++
		rep.checks = append(rep.checks, check{"training completes", false, err.Error()})
		return rep, nil
	}
	for i, c := range calls {
		rep.checks = append(rep.checks, trainChecks(fmt.Sprintf("call %d", i), c.out, spec, ds.Config.Classes)...)
	}
	var epochs []float64
	var epochSum time.Duration
	samples := 0
	for _, c := range calls {
		epochs = append(epochs, c.epoch().Seconds())
		epochSum += c.wall
		samples += ds.Train.N() * len(c.out.History)
	}
	epochMedian := time.Duration(median(epochs) * float64(time.Second))
	if !o.trace {
		maxEpoch := 0.0
		for _, e := range epochs {
			maxEpoch = math.Max(maxEpoch, e)
		}
		rep.metrics = map[string]metric{
			"setup_s":          {median(setups), "s"},
			"epoch_s":          {epochMedian.Seconds(), "s"},
			"throughput_per_s": {float64(samples) / epochSum.Seconds(), "1/s"},
			"p50_ms":           {1000 * median(epochs), "ms"},
			"tail_ms":          {1000 * maxEpoch, "ms"},
			"cpu_ms_per_item":  {ms(win.cpu) / float64(samples), "ms"},
			"peak_heap_mib":    {win.peakHeapMiB, "MiB"},
		}
		return rep, nil
	}

	spans := &trainSpans{}
	traced, _, err := trainCalls(spec, ds, o.seed, d, spans)
	rep.attempted += int64(len(traced))
	if err != nil {
		rep.attempted++
		rep.failed++
		rep.checks = append(rep.checks, check{"traced training completes", false, err.Error()})
		return rep, nil
	}
	rep.checks = append(rep.checks, check{"traced replica matches core.TrainNDSNN", sameOutcome(calls[0].out, traced[0].out),
		"same seed, bit-identical losses, accuracy and sparsity"})
	spans.metrics(rep.metrics, epochMedian)
	runtimeMetrics(rep.metrics)
	rep.budget = append(rep.budget, spans.budget(epochMedian)...)

	// Serve the trained model through the serve layer, untraced and traced.
	net := traced[len(traced)-1].net
	shape := []int{ds.Config.C, ds.Config.H, ds.Config.W}
	var compiles []time.Duration
	var eng *infer.Engine
	for i := 0; i < sz.setupReps; i++ {
		t0 := time.Now()
		eng, err = infer.Compile(net)
		compiles = append(compiles, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("compile trained model: %w", err)
		}
	}
	samples2, passMS, synOps := references(eng, ds)
	if sz.corruptReference {
		corrupt(samples2)
	}
	engT, err := infer.Compile(net)
	if err != nil {
		return nil, fmt.Errorf("compile trained model: %w", err)
	}
	reg := obs.New()
	engT.EnableTelemetry(reg, 1)
	plain := serve.New(eng, serve.Config{InputShape: shape})
	defer plain.Close()
	tracedSrv := serve.New(engT, serve.Config{InputShape: shape, Metrics: reg, TraceEvery: 1})
	defer tracedSrv.Close()
	br := traceServing(rawEndpoint(plain, nil), rawEndpoint(tracedSrv, reg), samples2, closed(clients(), probeRequests), o.seed, sz.probe)
	br.compileMS, br.passMS, br.synOps = ms(quantile(compiles, 0.5)), passMS, synOps
	rep.attempted += br.a.sent + br.b.sent
	rep.failed += br.a.failed + br.b.failed
	rep.checks = append(rep.checks, replyCheck("trained model served", br.a, br.b))
	lines, err := br.metrics(rep.metrics)
	if err != nil {
		return nil, err
	}
	rep.budget = append(rep.budget, lines...)
	return rep, nil
}

// budget lays out the traced replica's epoch: each span's share and the
// residual, against the untraced epoch.
func (sp *trainSpans) budget(untracedEpoch time.Duration) []string {
	epochs := time.Duration(sp.epochs)
	per := func(d time.Duration) float64 { return ms(d / epochs) }
	return []string{
		fmt.Sprintf("train budget per epoch (traced %.1f ms) = data %.1f + forward %.1f + backward %.1f + opt %.1f + rewire %.1f + eval %.1f + residual %.1f",
			per(sp.wall), per(sp.data), per(sp.forward), per(sp.backward), per(sp.step), per(sp.rewire), per(sp.eval), per(sp.wall-sp.accounted())),
		fmt.Sprintf("train tracing overhead: traced epoch %.1f ms vs untraced %.1f ms", per(sp.wall), ms(untracedEpoch)),
	}
}

// rawEndpoint serves through the internal serve layer directly; the train
// workload uses it for a model core.TrainNDSNN trained, which has no
// ndsnn.Model handle.
func rawEndpoint(s *serve.Server, reg *obs.Registry) endpoint {
	return endpoint{
		infer: func(ctx context.Context, img []float32) ([]float32, error) {
			shape := s.Config().InputShape
			return s.Infer(ctx, tensor.FromSlice(img, shape...))
		},
		batched: func() (int64, int64) {
			st := s.Stats()
			return st.Batches, st.BatchedSamples
		},
		telemetry: reg.Snapshot,
	}
}

func facadeEndpoint(s *ndsnn.Server, cfg data.Config) endpoint {
	return endpoint{
		infer: func(ctx context.Context, img []float32) ([]float32, error) {
			return s.Infer(ctx, img, cfg.C, cfg.H, cfg.W)
		},
		batched: func() (int64, int64) {
			st := s.Stats()
			return st.Batches, st.BatchedSamples
		},
		telemetry: s.Metrics,
	}
}

// corrupt flips the lowest bit of the first score of every reference reply.
func corrupt(samples []sample) {
	for i := range samples {
		want := append([]float32(nil), samples[i].want...)
		want[0] = math.Float32frombits(math.Float32bits(want[0]) ^ 1)
		samples[i].want = want
	}
}

func replyCheck(label string, results ...loadResult) check {
	var wrong, served int64
	for _, r := range results {
		wrong += r.wrong
		served += r.served()
	}
	return check{label + " replies bit-identical to serial engine", wrong == 0 && served > 0,
		fmt.Sprintf("%d of %d replies differ", wrong, served)}
}

// serveWorkload is one serving configuration with its load.
type serveWorkload struct {
	cfg ndsnn.ServingConfig
	gen load
}

// tailQuantile is the latency quantile reported as tail_ms on both loops:
// on a 2-core host p99 swung by a third or more between identical runs,
// where p90 held within a few percent.
const tailQuantile = 0.90

// serveClosed is serve-vgg16-closed: the float32 engine at CompileServer
// defaults, under one closed-loop client per core, in segments of 1,800
// requests (about 2 s at the capacity of a 2-core host).
var serveClosed = serveWorkload{
	cfg: ndsnn.ServingConfig{},
	gen: closed(clients(), 1800),
}

// serveInt8Open is serve-vgg16-int8-open: the fully-integer engine under an
// open loop at 200 req/s, a fifth of the closed loop's capacity on a 2-core
// host, in segments of 2 s.
var serveInt8Open = serveWorkload{
	cfg: ndsnn.ServingConfig{Bits: 8, FullInteger: true},
	gen: open(200, 2*time.Second),
}

// runServe returns the runner of a serve workload. Set-up trains the
// deployable VGG-16 with ndsnn.TrainModel, compiles the server and waits for
// its first reply; then the same model is trained again through
// core.TrainNDSNN (or, traced, its replica) and compiled to a serial engine
// whose replies every served reply must match bit for bit.
func runServe(w serveWorkload) workload {
	return func(o options, sz sizes) (*report, error) {
		rep := &report{metrics: map[string]metric{}}
		mc := sz.deployed
		spec := trainSpec{
			arch: mc.Arch, scale: sz.deployedScale, epochs: sz.deployedScale.EpochsFor(mc.Dataset),
			timesteps: mc.Timesteps, sparsity: mc.Sparsity,
		}
		// ndsnn.TrainModel's dataset and initial weights for this config.
		ds := spec.dataset(1000 + mc.Seed%7)
		cfg := ds.Config
		pix := cfg.C * cfg.H * cfg.W
		var setups, epochs, compiles []float64
		var model *ndsnn.Model
		var srv *ndsnn.Server
		for i := 0; i < sz.setupReps; i++ {
			if srv != nil {
				srv.Close()
			}
			t0 := time.Now()
			m, res, err := ndsnn.TrainModel(mc)
			if err != nil {
				return nil, fmt.Errorf("train deployable model: %w", err)
			}
			t1 := time.Now()
			s, err := m.CompileServer(w.cfg)
			if err != nil {
				return nil, fmt.Errorf("compile server: %w", err)
			}
			t2 := time.Now()
			if _, err := s.Infer(context.Background(), ds.Test.Images[:pix], cfg.C, cfg.H, cfg.W); err != nil {
				s.Close()
				return nil, fmt.Errorf("first reply: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			epochs = append(epochs, t1.Sub(t0).Seconds()/float64(len(res.History)))
			compiles = append(compiles, ms(t2.Sub(t1)))
			model, srv = m, s
		}
		defer srv.Close()

		net := spec.network(ds, mc.Seed*31+7)
		var spans *trainSpans
		var err error
		if o.trace {
			spans = &trainSpans{}
			_, err = tracedNDSNN(net, ds, spec.common(mc.Seed+1), spec.config(), spans)
		} else {
			_, err = core.TrainNDSNN(net, ds, spec.common(mc.Seed+1), spec.config())
		}
		if err != nil {
			return nil, fmt.Errorf("train reference model: %w", err)
		}
		var eng *infer.Engine
		if w.cfg.Bits == 0 {
			eng, err = infer.Compile(net)
		} else {
			eng, err = infer.CompileQuantizedConfig(net, infer.QuantConfig{
				WeightBits: w.cfg.Bits, ActivationBits: w.cfg.ActivationBits, FullInteger: w.cfg.FullInteger,
			})
			if err == nil {
				analog := eng.QuantStats().AnalogStages
				rep.checks = append(rep.checks, check{"integer engine has no analog stages", analog == 0,
					fmt.Sprintf("%d analog stages", analog)})
			}
		}
		if err != nil {
			return nil, fmt.Errorf("compile reference engine: %w", err)
		}
		samples, passMS, synOps := references(eng, ds)
		if sz.corruptReference {
			corrupt(samples)
		}

		plain := facadeEndpoint(srv, cfg)
		warm := w.gen(plain.infer, samples, o.seed+1)
		if !o.trace {
			segs := segments(w.gen, plain.infer, samples, o.seed, o.seconds)
			all := merged(segs)
			rep.attempted, rep.failed = warm.sent+all.sent, warm.failed+all.failed
			rep.checks = append(rep.checks, replyCheck("served", warm, all))
			rep.metrics = map[string]metric{
				"setup_s":          {median(setups), "s"},
				"epoch_s":          {median(epochs), "s"},
				"throughput_per_s": {segmentMedian(segs, throughput), "1/s"},
				"p50_ms":           {segmentMedian(segs, latencyAt(0.5)), "ms"},
				"tail_ms":          {segmentMedian(segs, latencyAt(tailQuantile)), "ms"},
				"cpu_ms_per_item":  {segmentMedian(segs, cpuPerRequest), "ms"},
				"peak_heap_mib":    {segmentMedian(segs, peakHeap), "MiB"},
			}
			return rep, nil
		}

		tcfg := w.cfg
		tcfg.Metrics, tcfg.TraceEvery = true, 1
		tsrv, err := model.CompileServer(tcfg)
		if err != nil {
			return nil, fmt.Errorf("compile traced server: %w", err)
		}
		defer tsrv.Close()
		br := traceServing(plain, facadeEndpoint(tsrv, cfg), samples, w.gen, o.seed, o.seconds/2)
		br.compileMS, br.passMS, br.synOps = median(compiles), passMS, synOps
		rep.attempted = warm.sent + br.a.sent + br.b.sent
		rep.failed = warm.failed + br.a.failed + br.b.failed
		rep.checks = append(rep.checks, replyCheck("served", warm, br.a, br.b))
		untracedEpoch := time.Duration(median(epochs) * float64(time.Second))
		spans.metrics(rep.metrics, untracedEpoch)
		runtimeMetrics(rep.metrics)
		rep.budget = append(rep.budget, spans.budget(untracedEpoch)...)
		lines, err := br.metrics(rep.metrics)
		if err != nil {
			return nil, err
		}
		rep.budget = append(rep.budget, lines...)
		return rep, nil
	}
}
