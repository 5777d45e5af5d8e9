package main

import (
	"fmt"
	"math"
	"time"

	"ndsnn/internal/bench"
	"ndsnn/internal/core"
	"ndsnn/internal/data"
	"ndsnn/internal/layers"
	"ndsnn/internal/loss"
	"ndsnn/internal/models"
	"ndsnn/internal/opt"
	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
	"ndsnn/internal/train"
)

// trainSpec is one NDSNN training configuration, assembled the way the
// experiment harness (bench.RunOn) assembles it for a scale.
type trainSpec struct {
	arch      string
	scale     bench.Scale
	epochs    int
	timesteps int
	sparsity  float64
	lr        float64 // 0 takes the scale's rate for the architecture
}

func (s trainSpec) dataset(seed uint64) *data.Dataset {
	return s.scale.Dataset(bench.CIFAR10, seed)
}

func (s trainSpec) network(ds *data.Dataset, seed uint64) *snn.Network {
	return models.Build(models.Config{
		Arch: s.arch, Classes: ds.Config.Classes,
		InC: ds.Config.C, InH: ds.Config.H, InW: ds.Config.W,
		Timesteps: s.timesteps, Neuron: snn.DefaultNeuron(),
		Profile: s.scale.Profile, Seed: seed,
	})
}

func (s trainSpec) common(seed uint64) train.Common {
	lr := s.lr
	if lr == 0 {
		lr = s.scale.LRFor(s.arch)
	}
	return train.Common{
		Epochs: s.epochs, BatchSize: s.scale.BatchSize,
		LR: lr, LRMin: lr / 100, Momentum: 0.9, WeightDecay: 5e-4,
		MaxBatches: s.scale.MaxBatches, Seed: seed,
	}
}

func (s trainSpec) config() core.Config {
	return core.Config{
		InitialSparsity: bench.InitialSparsityFor(s.sparsity),
		FinalSparsity:   s.sparsity,
		DeltaT:          s.scale.DeltaT,
	}
}

// trainSpans accumulates the traced replica's time per layer call and the
// counters read around those calls.
type trainSpans struct {
	calls, epochs, steps int
	wall                 time.Duration
	data, forward        time.Duration
	backward, step       time.Duration
	rewire, eval         time.Duration
	rewires, grown       int
	tapePeak             int64
	occupancy, spikeRate float64 // summed over epochs
	poolSubmits          int64
}

// accounted is the part of the replica's wall-clock the spans cover.
func (sp *trainSpans) accounted() time.Duration {
	return sp.data + sp.forward + sp.backward + sp.step + sp.rewire + sp.eval
}

// metrics returns the training-layer metrics: per optimizer step for the
// loop's phases, per call for rewiring counts and evaluation, and the
// residual the spans leave unexplained per epoch.
func (sp *trainSpans) metrics(m map[string]metric, untracedEpoch time.Duration) {
	steps, epochs, calls := float64(sp.steps), float64(sp.epochs), float64(sp.calls)
	tracedEpoch := float64(sp.wall) / epochs
	m["data.batch_ms"] = metric{ms(sp.data) / steps, "ms"}
	m["snn.forward_ms"] = metric{ms(sp.forward) / steps, "ms"}
	m["snn.backward_ms"] = metric{ms(sp.backward) / steps, "ms"}
	m["opt.step_ms"] = metric{ms(sp.step) / steps, "ms"}
	m["core.rewire_ms"] = metric{ms(sp.rewire) / math.Max(1, float64(sp.rewires)), "ms"}
	m["core.rewires"] = metric{float64(sp.rewires) / calls, "count"}
	m["core.grown"] = metric{float64(sp.grown) / calls, "count"}
	m["tape.peak_mib"] = metric{float64(sp.tapePeak) / (1 << 20), "MiB"}
	m["layers.occupancy"] = metric{sp.occupancy / epochs, "ratio"}
	m["snn.spike_rate"] = metric{sp.spikeRate / epochs, "ratio"}
	m["tensor.pool_submits"] = metric{float64(sp.poolSubmits) / steps, "count"}
	m["train.eval_ms"] = metric{ms(sp.eval) / calls, "ms"}
	m["train.residual_ms"] = metric{ms(sp.wall-sp.accounted()) / epochs, "ms"}
	m["trace.train_overhead_pct"] = metric{100 * (tracedEpoch - float64(untracedEpoch)) / float64(untracedEpoch), "%"}
}

// tracedNDSNN is core.TrainNDSNN spelled out from the same public calls in
// the same order — masks, optimizer, schedules, the loop's epoch body
// (train.Loop.RunEpoch) and the final evaluation — with a clock read around
// each layer's call. Given the same inputs it must produce the same model as
// core.TrainNDSNN; the train workload checks that bit for bit.
func tracedNDSNN(net *snn.Network, ds *data.Dataset, common train.Common, cfg core.Config, sp *trainSpans) (*core.Outcome, error) {
	start := time.Now()
	submits0 := tensor.ReadPoolStats().Tasks
	common = common.WithDefaults()
	cfg = cfg.WithDefaults()
	r := rng.New(common.Seed)
	params := layers.PrunableParams(net.Params())
	shapes := core.ShapesOf(params)
	densInit := core.Densities(shapes, 1-cfg.InitialSparsity, cfg.Distribution)
	densFinal := core.Densities(shapes, 1-cfg.FinalSparsity, cfg.Distribution)
	thetaInit := make([]float64, len(params))
	thetaFinal := make([]float64, len(params))
	for i := range params {
		thetaInit[i] = 1 - densInit[i]
		thetaFinal[i] = 1 - densFinal[i]
	}
	core.InitMasks(params, densInit, r.Split())

	sgd := opt.NewSGD(common.LR, common.Momentum, common.WeightDecay)
	loop := &train.Loop{
		Net: net, Dataset: ds, Opt: sgd,
		Schedule:   opt.CosineLR{Base: common.LR, Min: common.LRMin, Total: common.Epochs},
		BatchSize:  common.BatchSize,
		Epochs:     common.Epochs,
		MaxBatches: common.MaxBatches,
		Rng:        r.Split(),
	}
	totalSteps := common.Epochs * loop.StepsPerEpoch()
	rampSteps := int(cfg.RampFraction * float64(totalSteps))
	stopStep := int(cfg.StopFraction * float64(totalSteps))
	if minStop := rampSteps + cfg.DeltaT + 1; stopStep < minStop {
		stopStep = minStop
	}
	rewirer := &core.Rewirer{
		Params: params,
		Schedule: &core.SparsitySchedule{
			Initial: thetaInit, Final: thetaFinal,
			T0: 0, RampSteps: rampSteps, Shape: cfg.Shape,
		},
		Death:     core.DeathRate{D0: cfg.DeathRate0, DMin: cfg.DeathRateMin, T0: 0, RampSteps: rampSteps},
		Criterion: cfg.Grow,
		Opt:       sgd,
		Rng:       r.Split(),
	}
	core.ArmSparseCompute(loop, params, cfg.Grow, cfg.DeltaT, stopStep)

	out := &core.Outcome{}
	all := net.Params()
	step := 0
	for epoch := 0; epoch < common.Epochs; epoch++ {
		sgd.LR = loop.Schedule.At(epoch)
		net.ResetSpikeStats()
		net.ResetEventStats()
		tape.ResetPeak()
		batches := data.ShuffledBatches(ds.Train.N(), common.BatchSize, loop.Rng)
		if common.MaxBatches > 0 && len(batches) > common.MaxBatches {
			batches = batches[:common.MaxBatches]
		}
		var totalLoss float64
		correct, seen := 0, 0
		for _, idxs := range batches {
			loop.Hooks.OnBatchStart(step + 1)
			t0 := time.Now()
			x, labels := ds.Batch(&ds.Train, idxs)
			t1 := time.Now()
			outs := net.Forward(x, true)
			batchLoss, grads := loss.CrossEntropyRate(outs, labels)
			t2 := time.Now()
			totalLoss += batchLoss * float64(len(idxs))
			correct += loss.CountCorrect(outs, labels)
			seen += len(idxs)
			t3 := time.Now()
			net.ZeroGrads()
			net.Backward(grads)
			t4 := time.Now()
			sgd.Step(all)
			step++
			t5 := time.Now()
			sp.data += t1.Sub(t0)
			sp.forward += t2.Sub(t1)
			sp.backward += t4.Sub(t3)
			sp.step += t5.Sub(t4)
			sp.steps++
			if cfg.DeltaT > 0 && step%cfg.DeltaT == 0 && step < stopStep {
				rs := rewirer.Apply(step)
				sp.rewire += time.Since(t5)
				sp.rewires++
				sp.grown += rs.Grown
				out.Rewires = append(out.Rewires, rs)
			}
		}
		if seen == 0 {
			return nil, fmt.Errorf("epoch %d saw no data", epoch)
		}
		stats := train.EpochStats{
			Epoch:          epoch,
			Loss:           totalLoss / float64(seen),
			TrainAcc:       float64(correct) / float64(seen),
			SpikeRate:      net.SpikeRate(),
			Sparsity:       layers.GlobalSparsity(params),
			LR:             sgd.LR,
			Steps:          len(batches),
			Occupancy:      net.EventStats().Occupancy(),
			PeakCacheBytes: tape.PeakBytes(),
		}
		for _, p := range all {
			if p.W.HasNaN() {
				return nil, fmt.Errorf("parameter %s diverged (NaN/Inf) at epoch %d", p.Name, epoch)
			}
		}
		out.History = append(out.History, stats)
		sp.epochs++
		sp.occupancy += stats.Occupancy
		sp.spikeRate += stats.SpikeRate
		if stats.PeakCacheBytes > sp.tapePeak {
			sp.tapePeak = stats.PeakCacheBytes
		}
	}
	t0 := time.Now()
	out.TestAcc = train.Evaluate(net, ds, &ds.Test, common.EvalBatch)
	sp.eval += time.Since(t0)
	out.FinalSparsity = layers.GlobalSparsity(params)
	out.Trajectory = train.BuildTrajectory("NDSNN", out.History)
	sp.calls++
	sp.poolSubmits += tensor.ReadPoolStats().Tasks - submits0
	sp.wall += time.Since(start)
	return out, nil
}

// trainChecks gates one training outcome: a finite loss, the final sparsity
// on θ_f, and test accuracy clearly above chance.
func trainChecks(label string, out *core.Outcome, spec trainSpec, classes int) []check {
	last := out.History[len(out.History)-1]
	chance := 1 / float64(classes)
	return []check{
		{label + " loss finite", !math.IsNaN(last.Loss) && !math.IsInf(last.Loss, 0), fmt.Sprintf("%.4f", last.Loss)},
		{label + " final sparsity on target", math.Abs(out.FinalSparsity-spec.sparsity) <= 0.005,
			fmt.Sprintf("%.4f vs %.2f", out.FinalSparsity, spec.sparsity)},
		{label + " test accuracy above chance", out.TestAcc >= minAccuracyOverChance*chance,
			fmt.Sprintf("%.3f vs chance %.3f", out.TestAcc, chance)},
	}
}

// minAccuracyOverChance is how far above chance a trained model's test
// accuracy must land. Working gradients reach 3.5–7.5× chance in four epochs
// on the bench-scale proxy; a broken gradient leaves the model at chance.
const minAccuracyOverChance = 1.5

// sameOutcome reports whether two trainings of the same inputs agree bit
// for bit on every epoch's loss and on the final accuracy and sparsity.
func sameOutcome(a, b *core.Outcome) bool {
	if len(a.History) != len(b.History) || a.TestAcc != b.TestAcc || a.FinalSparsity != b.FinalSparsity {
		return false
	}
	for i := range a.History {
		if a.History[i].Loss != b.History[i].Loss {
			return false
		}
	}
	return true
}
