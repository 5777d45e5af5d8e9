package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ndsnn/internal/data"
	"ndsnn/internal/infer"
	"ndsnn/internal/obs"
	"ndsnn/internal/tensor"
)

// references runs every test image of ds through eng, serially, and returns
// the images with their replies, the median pass time over passRounds
// further rounds, and the synaptic operations per sample.
func references(eng *infer.Engine, ds *data.Dataset) (samples []sample, passMS, synOps float64) {
	cfg := ds.Config
	pix := cfg.C * cfg.H * cfg.W
	n := ds.Test.N()
	input := func(i int) *tensor.Tensor {
		return tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], cfg.C, cfg.H, cfg.W)
	}
	eng.ResetStats()
	for i := 0; i < n; i++ {
		samples = append(samples, sample{img: input(i).Data, want: eng.Infer(input(i))})
	}
	synOps = float64(eng.SynOps()) / float64(n)
	var passes []time.Duration
	for r := 0; r < passRounds; r++ {
		for i := 0; i < n; i++ {
			x := input(i)
			t0 := time.Now()
			eng.Infer(x)
			passes = append(passes, time.Since(t0))
		}
	}
	return samples, ms(quantile(passes, 0.5)), synOps
}

// passRounds is how many times infer.pass_ms times every test image; the
// first pass, which computes the references, warms the engine's arenas.
const passRounds = 3

// load sends one segment of serving load: a fixed number of requests, so
// every segment allocates alike whatever the server's speed, and the heap
// peak measures the server rather than how many requests fitted in a time.
type load func(infer inferFunc, samples []sample, seed uint64) loadResult

// closed is a closed loop of clients sending n requests in all.
func closed(clients, n int) load {
	return func(infer inferFunc, samples []sample, seed uint64) loadResult {
		return closedLoop(infer, samples, clients, seed, n)
	}
}

// open is an open loop sending at rate for d.
func open(rate float64, d time.Duration) load {
	return func(infer inferFunc, samples []sample, seed uint64) loadResult {
		return openLoop(infer, samples, rate, seed, int(rate*d.Seconds()))
	}
}

// segments runs segments of gen back to back, each opened after a full
// garbage collection, until d has passed, and at least one. A run's serving
// metrics are medians over its segments, so a few seconds of interference
// from outside the program move them less than they would move one long
// window.
func segments(gen load, infer inferFunc, samples []sample, seed uint64, d time.Duration) []loadResult {
	var out []loadResult
	for start := time.Now(); len(out) == 0 || time.Since(start) < d; {
		out = append(out, gen(infer, samples, seed*1_000_003+uint64(len(out))))
	}
	return out
}

// merged pools the requests of several load results.
func merged(rs []loadResult) loadResult {
	var m loadResult
	for _, r := range rs {
		m.latency = append(m.latency, r.latency...)
		m.call = append(m.call, r.call...)
		m.late = append(m.late, r.late...)
		m.sent += r.sent
		m.failed += r.failed
		m.wrong += r.wrong
	}
	return m
}

// segmentMedian returns the median over segments of a per-segment statistic.
func segmentMedian(rs []loadResult, stat func(r *loadResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i := range rs {
		xs[i] = stat(&rs[i])
	}
	return median(xs)
}

func throughput(r *loadResult) float64    { return float64(r.served()) / r.win.wall.Seconds() }
func cpuPerRequest(r *loadResult) float64 { return ms(r.win.cpu) / float64(r.served()) }
func peakHeap(r *loadResult) float64      { return r.win.peakHeapMiB }

func latencyAt(q float64) func(r *loadResult) float64 {
	return func(r *loadResult) float64 { return ms(quantile(r.latency, q)) }
}

// endpoint is one running server as the load generators and the serving
// trace see it.
type endpoint struct {
	infer inferFunc
	// batched returns the coalesced engine passes and the samples they
	// carried so far.
	batched func() (passes, samples int64)
	// telemetry returns the server's metrics snapshot (empty when the server
	// runs without telemetry).
	telemetry func() obs.Snapshot
}

// servingBreakdown is what the traced run measures about the serving
// layers: phase A runs the workload's load on an untraced server, phase B
// the same load on a server with telemetry on and every pass traced. Each
// phase's segments are pooled.
type servingBreakdown struct {
	compileMS, passMS, synOps float64
	a, b                      loadResult
	aPasses, aSamples         int64
	bSamples                  int64
	bSnap                     obs.Snapshot
}

// traceServing runs the two phases of a serving breakdown, each for d.
func traceServing(plain, traced endpoint, samples []sample, gen load, seed uint64, d time.Duration) servingBreakdown {
	var br servingBreakdown
	p0, s0 := plain.batched()
	br.a = merged(segments(gen, plain.infer, samples, seed, d))
	p1, s1 := plain.batched()
	br.aPasses, br.aSamples = p1-p0, s1-s0
	gen(traced.infer, samples, seed+1) // warm the traced server's arenas
	_, s0 = traced.batched()
	br.b = merged(segments(gen, traced.infer, samples, seed, d))
	_, s1 = traced.batched()
	br.bSamples = s1 - s0
	br.bSnap = traced.telemetry()
	return br
}

// stageKinds groups the engine's per-stage histograms (one per top-level
// stage, named "<index>_<kind>") into layer kinds that exist in every
// compiled model: the stages ahead of the first spiking neuron, which see
// the analog input; the remaining convolutions and residual blocks; the
// spiking neurons; the fully connected layers; and everything else.
var stageKinds = []string{"prefix", "conv", "lif", "linear", "other"}

func stageKind(kind string, beforeFirstLIF bool) string {
	switch {
	case beforeFirstLIF && kind != "lif" && kind != "parlif":
		return "prefix"
	case kind == "conv" || kind == "qconv" || kind == "residual":
		return "conv"
	case kind == "lif" || kind == "parlif":
		return "lif"
	case kind == "linear" || kind == "qlinear":
		return "linear"
	default:
		return "other"
	}
}

// stageBreakdown returns the engine time per served sample, in ms, spent in
// each stage kind, from the histograms of a telemetry snapshot.
func stageBreakdown(snap obs.Snapshot, samples int64) (map[string]float64, error) {
	type stage struct {
		idx  int
		kind string
		ns   float64
	}
	var stages []stage
	const prefix = `infer_stage_ns{stage="`
	for _, h := range snap.Histograms {
		if !strings.HasPrefix(h.Name, prefix) {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(h.Name, prefix), `"}`)
		idx, kind, ok := strings.Cut(name, "_")
		if !ok {
			return nil, fmt.Errorf("unexpected stage histogram %q", h.Name)
		}
		i, err := strconv.Atoi(idx)
		if err != nil {
			return nil, fmt.Errorf("unexpected stage histogram %q: %w", h.Name, err)
		}
		stages = append(stages, stage{i, kind, h.Mean * float64(h.Count)})
	}
	if len(stages) == 0 || samples == 0 {
		return nil, fmt.Errorf("no traced engine passes recorded")
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].idx < stages[j].idx })
	out := make(map[string]float64, len(stageKinds))
	for _, k := range stageKinds {
		out[k] = 0
	}
	beforeLIF := true
	for _, s := range stages {
		if s.kind == "lif" || s.kind == "parlif" {
			beforeLIF = false
		}
		out[stageKind(s.kind, beforeLIF)] += s.ns / 1e6 / float64(samples)
	}
	return out, nil
}

// metrics returns the serving-layer metrics and the serving budget: the
// end-to-end median latency split into generator lateness, engine stages,
// and the serve layer's handoff, with the residual they leave unexplained.
func (br *servingBreakdown) metrics(m map[string]metric) ([]string, error) {
	stages, err := stageBreakdown(br.bSnap, br.bSamples)
	if err != nil {
		return nil, err
	}
	p50 := ms(quantile(br.a.latency, 0.5))
	callMS := ms(quantile(br.a.call, 0.5))
	lateMS := ms(quantile(br.a.late, 0.5))
	handoff := callMS - br.passMS
	var stageSum float64
	for _, k := range stageKinds {
		m["infer.stage_ms."+k] = metric{stages[k], "ms"}
		stageSum += stages[k]
	}
	residual := p50 - lateMS - stageSum - handoff
	m["infer.compile_ms"] = metric{br.compileMS, "ms"}
	m["infer.pass_ms"] = metric{br.passMS, "ms"}
	m["infer.synops_per_sample"] = metric{br.synOps, "count"}
	m["serve.call_ms"] = metric{callMS, "ms"}
	m["serve.handoff_ms"] = metric{handoff, "ms"}
	m["serve.mean_batch"] = metric{float64(br.aSamples) / float64(br.aPasses), "count"}
	m["gen.late_p50_ms"] = metric{lateMS, "ms"}
	m["gen.late_p99_ms"] = metric{ms(quantile(br.a.late, 0.99)), "ms"}
	m["serve.residual_ms"] = metric{residual, "ms"}
	tracedP50 := ms(quantile(br.b.latency, 0.5))
	m["trace.serve_overhead_pct"] = metric{100 * (tracedP50 - p50) / p50, "%"}
	budget := []string{
		fmt.Sprintf("serve budget (p50 %.3f ms) = gen.late %.3f + engine stages %.3f [%s] + handoff %.3f + residual %.3f",
			p50, lateMS, stageSum, formatStages(stages), handoff, residual),
		fmt.Sprintf("serve tracing overhead: traced p50 %.3f ms vs untraced %.3f ms", tracedP50, p50),
	}
	return budget, nil
}

func formatStages(stages map[string]float64) string {
	parts := make([]string, len(stageKinds))
	for i, k := range stageKinds {
		parts[i] = fmt.Sprintf("%s %.3f", k, stages[k])
	}
	return strings.Join(parts, ", ")
}
