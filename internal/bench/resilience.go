package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ndsnn/internal/fault"
	"ndsnn/internal/infer"
	"ndsnn/internal/models"
	"ndsnn/internal/serve"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
)

// Resilience benchmark: the serving layer's failure model under measurement.
// The same closed-loop workload as the observability benchmark runs three
// arms — no fault, a periodic injected engine panic, and a periodic injected
// dispatch delay — recording availability (served / attempted) and latency
// percentiles for each, then a shed sweep drives an adaptive-shedding server
// with deadline-carrying clients at rising concurrency to trace shed rate vs
// offered load. Every arm is gated on zero output mismatches among surviving
// requests and on the stats conservation law (admitted == resolved) after a
// clean drain. Recorded as BENCH_resilience.json.

// ResilienceCell is one fault-arm measurement.
type ResilienceCell struct {
	// Fault is "none", "panic" or "delay"; Site names the armed injection
	// site ("" for the baseline).
	Fault string `json:"fault"`
	Site  string `json:"site,omitempty"`
	// Concurrency closed-loop clients attempted Requests requests total.
	Concurrency int `json:"concurrency"`
	Requests    int `json:"requests"`
	// Served requests returned scores; Failed were refused with the typed
	// internal error after a batch was isolated (PanicsIsolated passes).
	Served         int64 `json:"served"`
	Failed         int64 `json:"failed"`
	PanicsIsolated int64 `json:"panics_isolated"`
	// SiteFired counts how often the armed plan actually fired.
	SiteFired int64 `json:"site_fired,omitempty"`
	// AvailabilityPct is 100·Served/Requests — the headline number: an
	// isolated fault costs exactly its own batches, nothing more.
	AvailabilityPct float64 `json:"availability_pct"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	// P50Ns / P99Ns are per-request latencies of the served requests.
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
	// DrainClean / ConservationOK record the post-workload shutdown checks:
	// the drain flushed everything, and Admitted == Served+Expired+Failed.
	DrainClean     bool `json:"drain_clean"`
	ConservationOK bool `json:"conservation_ok"`
	// Mismatches counts served score vectors differing from the serial
	// reference in any bit. Must be 0 — faults may fail requests, never
	// corrupt survivors.
	Mismatches int64 `json:"mismatches"`
}

// ShedCell is one point of the shed-rate-vs-offered-load sweep: closed-loop
// clients carrying a fixed deadline budget against a single-worker server
// whose backend is deterministically slowed by an injected per-batch delay
// (so the overload point is set by the harness, not by host speed). Offered
// load scales with the client count.
type ShedCell struct {
	Concurrency      int   `json:"concurrency"`
	DeadlineBudgetNs int64 `json:"deadline_budget_ns"`
	// BatchDelayNs is the injected serve.batch delay slowing every dispatch.
	BatchDelayNs int64 `json:"batch_delay_ns"`
	Attempted    int64 `json:"attempted"`
	Admitted     int64 `json:"admitted"`
	Served       int64 `json:"served"`
	// Shed were refused at admission by the EWMA wait predictor; Rejected by
	// the queue bound; Expired ran out of deadline in the queue or in flight.
	Shed     int64 `json:"shed"`
	Rejected int64 `json:"rejected"`
	Expired  int64 `json:"expired"`
	Failed   int64 `json:"failed"`
	// ShedRatePct is 100·Shed/Attempted; ServedPct is 100·Served/Attempted.
	ShedRatePct   float64 `json:"shed_rate_pct"`
	ServedPct     float64 `json:"served_pct"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// PredictedWaitNs is the shedder's EWMA at the end of the cell.
	PredictedWaitNs int64 `json:"predicted_wait_ns"`
	ConservationOK  bool  `json:"conservation_ok"`
	Mismatches      int64 `json:"mismatches"`
}

// ResilienceReport is the recorded artifact.
type ResilienceReport struct {
	Arch     string  `json:"arch"`
	Sparsity float64 `json:"sparsity"`
	Samples  int     `json:"samples"`
	// SerialNsPerSample is the single-caller engine baseline the fault-arm
	// latencies compare against.
	SerialNsPerSample int64            `json:"serial_ns_per_sample"`
	FaultCells        []ResilienceCell `json:"fault_cells"`
	ShedCells         []ShedCell       `json:"shed_cells"`
}

// RunResilience trains one NDSNN model, compiles the float32 engine, and
// measures the serving failure model: availability and p50/p99 with no
// fault, with a periodic injected engine panic (isolated per batch), and
// with a periodic injected dispatch delay — then sweeps concurrency against
// a fixed per-request deadline budget on an adaptive-shedding server. Gates
// (any violation is an error): zero mismatches among served requests in
// every arm, full availability in the no-fault and delay arms, genuine
// isolation in the panic arm (passes panicked, requests failed, and the
// server kept serving), and drain-clean + stats conservation everywhere.
func RunResilience(s Scale, arch string, sparsity float64, concurrency, requests int, seed uint64, progress Progress) (*ResilienceReport, error) {
	defer fault.DisarmAll()
	ds := s.Dataset(CIFAR10, 3000+seed)
	net := models.Build(models.Config{
		Arch: arch, Classes: ds.Config.Classes,
		InC: ds.Config.C, InH: ds.Config.H, InW: ds.Config.W,
		Timesteps: s.Timesteps, Neuron: snn.DefaultNeuron(),
		Profile: s.Profile, Seed: seed*17 + 3,
	})
	spec := Spec{Method: MethodNDSNN, Arch: arch, Dataset: CIFAR10, Sparsity: sparsity, Seed: seed}
	if _, err := RunOn(s, spec, ds, net); err != nil {
		return nil, err
	}

	n := ds.Test.N()
	if n > 32 {
		n = 32
	}
	pix := ds.Config.C * ds.Config.H * ds.Config.W
	samples := make([]*tensor.Tensor, n)
	for i := range samples {
		samples[i] = tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], ds.Config.C, ds.Config.H, ds.Config.W)
	}
	eng, err := infer.Compile(net)
	if err != nil {
		return nil, err
	}
	ref, serialNs := serialReference(eng, samples)
	// Warm the batched path once (arena pools, page faults): the first cell
	// measures availability under faults, not cold-start outliers.
	warm := len(samples)
	if warm > 8 {
		warm = 8
	}
	eng.InferBatch(samples[:warm])
	rep := &ResilienceReport{
		Arch: arch, Sparsity: sparsity, Samples: n, SerialNsPerSample: serialNs,
	}
	report(progress, "resilience serial fp32: %s/sample over %d samples", time.Duration(serialNs), n)

	// Fault arms. The panic plan fires every 13th engine timestep — an odd
	// period, coprime with the simulation length, so it drifts across batch
	// boundaries instead of always felling the same sample slot; the delay
	// plan stalls every 5th dispatch by 1ms.
	arms := []struct {
		fault, site string
		plan        fault.Plan
	}{
		{fault: "none"},
		{fault: "panic", site: "infer.pass", plan: fault.Plan{Mode: fault.Panic, Every: 13}},
		{fault: "delay", site: "serve.batch", plan: fault.Plan{Mode: fault.Delay, Every: 5, Sleep: time.Millisecond}},
	}
	for _, arm := range arms {
		cell, err := runResilienceCell(eng, samples, ref, arm.fault, arm.site, arm.plan, concurrency, requests)
		if err != nil {
			return nil, err
		}
		rep.FaultCells = append(rep.FaultCells, cell)
		report(progress, "resilience %-5s c=%d: availability %.2f%% served=%d failed=%d panics=%d p50=%s p99=%s",
			arm.fault, concurrency, cell.AvailabilityPct, cell.Served, cell.Failed, cell.PanicsIsolated,
			time.Duration(cell.P50Ns), time.Duration(cell.P99Ns))
	}

	// Shed sweep: fixed deadline budget, rising closed-loop concurrency.
	// Every dispatch is slowed by an injected 1ms serve.batch delay so the
	// single worker's capacity — and therefore the overload point — is set
	// by the harness rather than host speed. The budget is denominated in
	// *realized* batch cycles (coarse kernel timers can stretch a 1ms sleep
	// severalfold): three cycles of headroom, so a lone client always fits
	// its deadline while a queue several batches deep cannot.
	const shedDelay = time.Millisecond
	cycle := realizedSleep(shedDelay) + time.Duration(8*serialNs)
	shedBudget := 3 * cycle
	report(progress, "resilience shed calibration: %s nominal sleep realizes a %s batch cycle, budget %s",
		shedDelay, cycle, shedBudget)
	for _, c := range []int{1, concurrency, 4 * concurrency} {
		cell, err := runShedCell(eng, samples, ref, c, requests, shedBudget, shedDelay)
		if err != nil {
			return nil, err
		}
		rep.ShedCells = append(rep.ShedCells, cell)
		report(progress, "resilience shed c=%-3d budget=%s: shed %.1f%% served %.1f%% expired=%d ewma=%s",
			c, shedBudget, cell.ShedRatePct, cell.ServedPct, cell.Expired, time.Duration(cell.PredictedWaitNs))
	}

	// Gates.
	for _, cell := range rep.FaultCells {
		if cell.Mismatches != 0 {
			return nil, fmt.Errorf("bench: resilience %s arm served %d mismatched responses (survivors must be bit-identical)", cell.Fault, cell.Mismatches)
		}
		if !cell.ConservationOK || !cell.DrainClean {
			return nil, fmt.Errorf("bench: resilience %s arm violated shutdown invariants: %+v", cell.Fault, cell)
		}
		switch cell.Fault {
		case "none", "delay":
			if cell.AvailabilityPct != 100 {
				return nil, fmt.Errorf("bench: resilience %s arm lost requests: %+v", cell.Fault, cell)
			}
		case "panic":
			if cell.PanicsIsolated == 0 || cell.Failed == 0 {
				return nil, fmt.Errorf("bench: resilience panic arm injected no faults: %+v", cell)
			}
			if cell.Served == 0 {
				return nil, fmt.Errorf("bench: resilience panic arm: server did not keep serving: %+v", cell)
			}
		}
		if cell.Site != "" && cell.SiteFired == 0 {
			return nil, fmt.Errorf("bench: resilience %s arm armed %s but it never fired", cell.Fault, cell.Site)
		}
	}
	for _, cell := range rep.ShedCells {
		if cell.Mismatches != 0 {
			return nil, fmt.Errorf("bench: resilience shed cell c=%d served %d mismatched responses", cell.Concurrency, cell.Mismatches)
		}
		if !cell.ConservationOK {
			return nil, fmt.Errorf("bench: resilience shed cell c=%d violated conservation: %+v", cell.Concurrency, cell)
		}
	}
	if last := rep.ShedCells[len(rep.ShedCells)-1]; last.Shed == 0 {
		return nil, fmt.Errorf("bench: resilience shed sweep never shed at top concurrency: %+v", last)
	}
	return rep, nil
}

// runResilienceCell drives one fault arm: closed-loop clients against a
// server with the given site armed, every response checked bit-for-bit.
func runResilienceCell(eng *infer.Engine, samples []*tensor.Tensor, ref [][]float32,
	faultMode, siteName string, plan fault.Plan, concurrency, requests int) (ResilienceCell, error) {
	cell := ResilienceCell{Fault: faultMode, Site: siteName, Concurrency: concurrency, Requests: requests}
	var site *fault.Site
	if siteName != "" {
		site = fault.Lookup(siteName)
		if site == nil {
			return cell, fmt.Errorf("bench: fault site %s not registered", siteName)
		}
		if err := site.Arm(plan); err != nil {
			return cell, err
		}
		defer site.Disarm()
	}
	srv := serve.New(eng, serve.Config{
		MaxBatch: 8, Linger: 100 * time.Microsecond, MaxQueue: concurrency + 8,
	})

	var next, mismatches, unexpected atomic.Int64
	lats := make([][]int64, concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(requests) {
					return
				}
				idx := int(k) % len(samples)
				t0 := time.Now()
				scores, err := srv.Infer(context.Background(), samples[idx])
				if err != nil {
					if !errors.Is(err, serve.ErrInternal) {
						unexpected.Add(1)
					}
					continue
				}
				lats[g] = append(lats[g], time.Since(t0).Nanoseconds())
				for j := range scores {
					if scores[j] != ref[idx][j] {
						mismatches.Add(1)
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if site != nil {
		cell.SiteFired = site.Fired()
	}

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	res := srv.Drain(dctx)
	cancel()
	cell.DrainClean = res.Clean

	st := srv.Stats()
	cell.Served = st.Served
	cell.Failed = st.Failed
	cell.PanicsIsolated = st.Panics
	cell.Mismatches = mismatches.Load()
	cell.ConservationOK = st.Resolved() == st.Admitted
	cell.AvailabilityPct = 100 * float64(st.Served) / float64(requests)
	if elapsed > 0 {
		cell.ThroughputRPS = float64(requests) / elapsed.Seconds()
	}
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		cell.P50Ns = percentileNs(all, 50)
		cell.P99Ns = percentileNs(all, 99)
	}
	if u := unexpected.Load(); u > 0 {
		return cell, fmt.Errorf("bench: resilience %s arm saw %d errors outside the failure model", faultMode, u)
	}
	return cell, nil
}

// realizedSleep measures what a nominal time.Sleep actually costs on this
// host (median of three): kernel timer slack and scheduler throttling can
// stretch a millisecond sleep severalfold, and the shed sweep's deadline
// budget must be priced in realized cycles to mean the same thing anywhere.
func realizedSleep(d time.Duration) time.Duration {
	var got [3]time.Duration
	for i := range got {
		t0 := time.Now()
		time.Sleep(d)
		got[i] = time.Since(t0)
	}
	sort.Slice(got[:], func(i, j int) bool { return got[i] < got[j] })
	return got[1]
}

// runShedCell drives one adaptive-shedding point: closed-loop clients each
// carrying a fixed deadline budget against a shedding server whose queue is
// sized to the client count (so every refusal is the wait predictor, not the
// queue bound) and whose every dispatch is slowed by the injected delay.
func runShedCell(eng *infer.Engine, samples []*tensor.Tensor, ref [][]float32,
	concurrency, requests int, budget, delay time.Duration) (ShedCell, error) {
	cell := ShedCell{
		Concurrency: concurrency, DeadlineBudgetNs: budget.Nanoseconds(),
		BatchDelayNs: delay.Nanoseconds(), Attempted: int64(requests),
	}
	site := fault.Lookup("serve.batch")
	if site == nil {
		return cell, fmt.Errorf("bench: fault site serve.batch not registered")
	}
	if err := site.Arm(fault.Plan{Mode: fault.Delay, Every: 1, Sleep: delay}); err != nil {
		return cell, err
	}
	defer site.Disarm()
	// One dispatcher: dispatches are serialized so queue wait genuinely grows
	// with offered load — with the default worker pool delayed batches just
	// run side by side and the queue never backs up.
	srv := serve.New(eng, serve.Config{
		MaxBatch: 8, Linger: 100 * time.Microsecond, MaxQueue: concurrency + 8,
		Workers: 1, AdaptiveShed: true,
	})

	var next, mismatches, unexpected atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(requests) {
					return
				}
				idx := int(k) % len(samples)
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				scores, err := srv.Infer(ctx, samples[idx])
				cancel()
				if err != nil {
					if !errors.Is(err, serve.ErrOverloaded) &&
						!errors.Is(err, context.DeadlineExceeded) &&
						!errors.Is(err, serve.ErrInternal) {
						unexpected.Add(1)
					}
					continue
				}
				for j := range scores {
					if scores[j] != ref[idx][j] {
						mismatches.Add(1)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cell.PredictedWaitNs = srv.WaitPrediction().Nanoseconds()

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	srv.Drain(dctx)
	cancel()

	st := srv.Stats()
	cell.Admitted = st.Admitted
	cell.Served = st.Served
	cell.Shed = st.Shed
	cell.Rejected = st.Rejected
	cell.Expired = st.Expired()
	cell.Failed = st.Failed
	cell.Mismatches = mismatches.Load()
	cell.ConservationOK = st.Resolved() == st.Admitted
	cell.ShedRatePct = 100 * float64(st.Shed) / float64(requests)
	cell.ServedPct = 100 * float64(st.Served) / float64(requests)
	if elapsed > 0 {
		cell.ThroughputRPS = float64(st.Served) / elapsed.Seconds()
	}
	if u := unexpected.Load(); u > 0 {
		return cell, fmt.Errorf("bench: resilience shed cell c=%d saw %d errors outside the failure model", concurrency, u)
	}
	return cell, nil
}

// PrintResilience writes the report as indented JSON (the BENCH artifact
// format).
func PrintResilience(w io.Writer, r *ResilienceReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("bench: encode resilience report: %w", err)
	}
	return nil
}
