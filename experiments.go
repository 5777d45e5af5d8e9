package ndsnn

import (
	"fmt"
	"io"
	"sort"

	"ndsnn/internal/bench"
)

// ExperimentIDs lists every reproducible artifact of the paper's evaluation
// plus this repository's ablation studies, in presentation order.
var ExperimentIDs = []string{
	"fig1", "table1", "table2", "table3", "fig4", "fig5", "memory", "synops",
	"quant-infer", "observability", "resilience",
	"ablation-grow", "ablation-shape", "ablation-allocation",
	"ablation-surrogate", "ablation-deltat",
}

// ExperimentDescription maps experiment ids to what they reproduce.
var ExperimentDescription = map[string]string{
	"fig1":                "Fig. 1 — sparsity-vs-epoch trajectories of ADMM / LTH / NDSNN",
	"table1":              "Table I — accuracy of Dense/LTH/SET/RigL/NDSNN across sparsities, models, datasets",
	"table2":              "Table II — ADMM (LeNet-5) vs NDSNN (VGG-16) at moderate sparsity",
	"table3":              "Table III — effect of initial sparsity θi on NDSNN accuracy",
	"fig4":                "Fig. 4 — NDSNN vs LTH at small timestep (T=2)",
	"fig5":                "Fig. 5 — normalized training cost of Dense/LTH/NDSNN",
	"memory":              "Sec. III-D — training/inference memory-footprint model",
	"synops":              "measured event-driven SynOps vs the Sec. IV-C analytic cost model",
	"quant-infer":         "integer event-driven inference: float32 engine vs int8/int4/int16 QCSR per Sec. III-D platform (JSON, BENCH_quant_infer.json)",
	"observability":       "telemetry cost: serving p99/throughput with metrics off vs on (overhead gated ≤1%) + per-stage latency/SynOps breakdown (JSON, BENCH_observability.json)",
	"resilience":          "serving failure model: availability + p99 under injected panic/delay faults vs no-fault baseline, shed-rate vs offered load, survivors gated bit-identical (JSON, BENCH_resilience.json)",
	"ablation-grow":       "A1 — gradient vs random regrowth",
	"ablation-shape":      "A2 — cubic vs linear vs step sparsity ramp",
	"ablation-allocation": "A3 — ERK vs uniform layer allocation",
	"ablation-surrogate":  "A4 — surrogate gradient choice",
	"ablation-deltat":     "A5 — mask-update period ΔT sweep",
}

// ExperimentOptions tunes a RunExperiment call.
type ExperimentOptions struct {
	// Scale is "unit", "bench" (default) or "paper".
	Scale string
	// Full runs the complete paper grid instead of the reduced default
	// (only affects table1/table3/fig4, which are large grids).
	Full bool
	// Seed defaults to 7.
	Seed uint64
	// Progress receives per-run status lines; nil disables them.
	Progress func(string)
}

func (o ExperimentOptions) withDefaults() ExperimentOptions {
	if o.Scale == "" {
		o.Scale = "bench"
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

// RunExperiment regenerates one paper artifact, writing the rendered
// table/figure to w. Experiment ids are listed in ExperimentIDs.
func RunExperiment(id string, w io.Writer, opts ExperimentOptions) error {
	opts = opts.withDefaults()
	s := bench.ScaleByName(opts.Scale)
	progress := bench.Progress(opts.Progress)
	switch id {
	case "table1":
		cfg := bench.DefaultTable1(s)
		cfg.Seed = opts.Seed
		if !opts.Full {
			// Reduced default grid: both models, the two CIFAR proxies.
			// Width-scaled models have ~1000× fewer weights than the
			// paper's, so the informative sparsity band shifts left: 95%
			// of a 30k-parameter model leaves as few absolute weights as
			// ~99.9% of VGG-16. {0.80, 0.95} spans moderate → extreme in
			// relative capacity; the full paper grid is behind -full.
			cfg.Datasets = []string{bench.CIFAR10, bench.CIFAR100}
			cfg.Sparsities = []float64{0.80, 0.95}
		}
		cells, err := bench.RunTable1(cfg, progress)
		if err != nil {
			return err
		}
		bench.PrintTable1(w, cells, cfg.Sparsities)
		printTable1Derived(w, cells)
		return nil
	case "table2":
		r, err := bench.RunTable2(s, []float64{0.40, 0.50, 0.60, 0.75}, opts.Seed, progress)
		if err != nil {
			return err
		}
		bench.PrintTable2(w, r)
		return nil
	case "table3":
		targets := []float64{0.95, 0.98}
		initials := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
		archs := []string{"vgg16", "resnet19"}
		datasets := []string{bench.CIFAR10, bench.CIFAR100}
		if !opts.Full {
			targets = []float64{0.90, 0.95}
			initials = []float64{0.5, 0.6, 0.7, 0.8}
			datasets = []string{bench.CIFAR10}
		}
		cells, err := bench.RunTable3(s, archs, datasets, targets, initials, opts.Seed, progress)
		if err != nil {
			return err
		}
		bench.PrintTable3(w, cells)
		return nil
	case "fig1":
		r, err := bench.RunFig1(s, "vgg16", 0.95, opts.Seed, progress)
		if err != nil {
			return err
		}
		bench.PrintFig1(w, r)
		return nil
	case "fig4":
		sparsities := []float64{0.90, 0.95, 0.98, 0.99}
		if !opts.Full {
			sparsities = []float64{0.80, 0.95}
		}
		r, err := bench.RunFig4(s, sparsities, opts.Seed, progress)
		if err != nil {
			return err
		}
		bench.PrintFig4(w, r)
		return nil
	case "fig5":
		r, err := bench.RunFig5(s, 0.95, opts.Seed, progress)
		if err != nil {
			return err
		}
		bench.PrintFig5(w, r)
		return nil
	case "memory":
		for _, arch := range []string{"vgg16", "resnet19"} {
			rep := bench.RunMemory(arch, 10, 32, 5, []float64{0.5, 0.9, 0.95, 0.98, 0.99})
			bench.PrintMemory(w, rep)
		}
		return nil
	case "synops":
		r, err := bench.RunSynOps(s, "vgg16", []float64{0, 0.9, 0.95, 0.99}, opts.Seed, progress)
		if err != nil {
			return err
		}
		bench.PrintSynOps(w, r)
		return nil
	case "quant-infer":
		// ResNet-19 at 80% sparsity: the bench-scale model that trains far
		// enough from chance for the per-platform accuracy deltas to be
		// signal (the reduced-scale VGG-16 sits at chance, where deep spike
		// dynamics make deltas coin flips), and its residual blocks exercise
		// the integer engine's full stage set.
		rep, err := bench.RunQuantInfer(s, "resnet19", 0.80, opts.Seed, progress)
		if err != nil {
			return err
		}
		return bench.PrintQuantInfer(w, rep)
	case "observability":
		// LeNet-5 keeps the per-request compute small enough that queueing
		// and coalescing — not raw engine latency — dominate the cells; they
		// compare metrics-off vs metrics-on arms of the same plan.
		concurrency, requests := 16, 384
		if opts.Scale == "unit" {
			concurrency, requests = 8, 96
		}
		rep, err := bench.RunObservability(s, "lenet5", 0.80, concurrency, requests, opts.Seed, progress)
		if err != nil {
			return err
		}
		return bench.PrintObservability(w, rep)
	case "resilience":
		// Same LeNet-5 workload as the observability experiment, but under
		// injected faults and deadline pressure: the artifact is
		// availability, not throughput.
		concurrency, requests := 16, 384
		if opts.Scale == "unit" {
			concurrency, requests = 8, 96
		}
		rep, err := bench.RunResilience(s, "lenet5", 0.80, concurrency, requests, opts.Seed, progress)
		if err != nil {
			return err
		}
		return bench.PrintResilience(w, rep)
	case "ablation-grow":
		return runAblation(w, s, opts, bench.RunAblationGrowCriterion)
	case "ablation-shape":
		return runAblation(w, s, opts, bench.RunAblationScheduleShape)
	case "ablation-allocation":
		return runAblation(w, s, opts, bench.RunAblationLayerAllocation)
	case "ablation-surrogate":
		return runAblation(w, s, opts, bench.RunAblationSurrogate)
	case "ablation-deltat":
		return runAblation(w, s, opts, bench.RunAblationUpdateFrequency)
	default:
		return fmt.Errorf("ndsnn: unknown experiment %q (known: %v)", id, ExperimentIDs)
	}
}

func runAblation(w io.Writer, s bench.Scale, opts ExperimentOptions,
	run func(bench.Scale, uint64, bench.Progress) (*bench.AblationResult, error)) error {
	r, err := run(s, opts.Seed, bench.Progress(opts.Progress))
	if err != nil {
		return err
	}
	bench.PrintAblation(w, r)
	return nil
}

// printTable1Derived prints the Sec. IV-B style derived claims: where NDSNN
// ranks against each baseline at the highest sparsity.
func printTable1Derived(w io.Writer, cells []bench.Cell) {
	type key struct{ arch, ds string }
	best := map[key]map[string]float64{}
	maxSp := 0.0
	for _, c := range cells {
		if c.Sparsity > maxSp {
			maxSp = c.Sparsity
		}
	}
	for _, c := range cells {
		if c.Sparsity != maxSp || c.Method == bench.MethodDense {
			continue
		}
		k := key{c.Arch, c.Dataset}
		if best[k] == nil {
			best[k] = map[string]float64{}
		}
		best[k][c.Method] = c.Acc
	}
	var keys []key
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].arch != keys[j].arch {
			return keys[i].arch < keys[j].arch
		}
		return keys[i].ds < keys[j].ds
	})
	fmt.Fprintf(w, "\n--- Derived (Sec. IV-B style): NDSNN vs baselines at θ=%.0f%% ---\n", maxSp*100)
	for _, k := range keys {
		m := best[k]
		nd, ok := m[bench.MethodNDSNN]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s/%s:", k.arch, k.ds)
		for _, base := range []string{bench.MethodLTH, bench.MethodSET, bench.MethodRigL} {
			if acc, ok := m[base]; ok {
				fmt.Fprintf(w, "  vs %s %+0.2f pts", base, (nd-acc)*100)
			}
		}
		fmt.Fprintln(w)
	}
}
