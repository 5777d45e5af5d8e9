package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"ndsnn/internal/bench"
)

// unitSizes runs every workload at unit scale: the same code paths as the
// benchmark, small enough for a test. Unit-scale training sits near chance
// (4 classes, 48 test images), so there the train workload's accuracy check
// may fail; every other check must pass.
var unitSizes = sizes{
	train:         trainSpec{arch: "resnet19", scale: bench.ScaleUnit, epochs: 2, timesteps: 2, sparsity: 0.9},
	deployed:      benchSizes.deployed,
	deployedScale: bench.ScaleUnit,
	setupReps:     1,
	probe:         200 * time.Millisecond,
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runOnce runs one benchmark invocation and returns its exit code and the
// parsed result line.
func runOnce(t *testing.T, sz sizes, workload, trace string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "5", "--seconds", "0.4", "--trace", trace}, &stdout, &stderr, sz)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line is not a result (exit %d): %v\n%s\n%s", workload, trace, code, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// TestEveryMetricReported runs every workload, untraced and traced, and
// checks that it passes its correctness gate and reports exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestEveryMetricReported(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			for _, m := range d.EndToEnd {
				if trace == "0" {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range d.PerLayer {
				if trace == "1" {
					want[m.Name] = m.Unit
				}
			}
			code, res, out := runOnce(t, unitSizes, w.Name, trace)
			if !res.Correct && onlyAccuracyFailed(out) {
				code, res.Correct = 0, true
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: exit %d, correct %v, attempted %d, failed %d\n%s", w.Name, trace, code, res.Correct, res.Attempted, res.Failed, out)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want unit %s", w.Name, trace, name, got, ok, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %s: undeclared metric %s", w.Name, trace, name)
				}
			}
		}
	}
}

// onlyAccuracyFailed reports whether every failed check in a run's output is
// a training accuracy check.
func onlyAccuracyFailed(out string) bool {
	failed := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "FAILED") {
			if !strings.Contains(line, "test accuracy above chance") {
				return false
			}
			failed++
		}
	}
	return failed > 0
}

// TestGateTripsOnCorruptedReference flips one bit of one serial-engine
// reply and checks that every serving path then fails its run.
func TestGateTripsOnCorruptedReference(t *testing.T) {
	sz := unitSizes
	sz.corruptReference = true
	for _, c := range []struct{ workload, trace string }{
		{"serve-vgg16-closed", "0"},
		{"serve-vgg16-int8-open", "0"},
		{"train-resnet19-t5", "1"},
	} {
		code, res, out := runOnce(t, sz, c.workload, c.trace)
		if code != 1 || res.Correct || !strings.Contains(out, "replies bit-identical to serial engine FAILED") {
			t.Errorf("%s trace %s: exit %d, correct %v; want exit 1 and a failed check\n%s", c.workload, c.trace, code, res.Correct, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-vgg16-closed", "--trace", "2"},
		{"--workload", "serve-vgg16-closed", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, unitSizes); code != 2 || strings.Contains(stdout.String(), "{\"correct\"") {
			t.Errorf("%v: exit %d, output %q; want exit 2 and no result", args, code, stdout.String())
		}
	}
}
