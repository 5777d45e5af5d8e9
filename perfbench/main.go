// Command perfbench is the repository benchmark. It runs one workload through
// the public entry points — core.TrainNDSNN for training, Model.CompileServer
// and Server.Infer for serving — checks every output, and prints its metrics:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, measured with no clock
// reads between the benchmark's calls into the program. With --trace 1 it
// prints the per-layer metrics: it repeats the workload with a clock read
// around each layer's public function, called from the benchmark's own code,
// and reports each workload's time budget, the residual the spans leave
// unexplained, and the tracing overhead. BENCHMARK.json at the repository
// root names every metric, its unit, and what each workload is for.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when every
// correctness check passed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type check struct {
	name   string
	ok     bool
	detail string
}

// report is everything a workload run produced.
type report struct {
	attempted, failed int64
	checks            []check
	metrics           map[string]metric
	budget            []string // traced runs: where the time went
}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

type workload func(o options, sz sizes) (*report, error)

var workloads = map[string]workload{
	"train-resnet19-t5":     runTrain,
	"serve-vgg16-closed":    runServe(serveClosed),
	"serve-vgg16-int8-open": runServe(serveInt8Open),
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, benchSizes))
}

// run executes one benchmark invocation and returns the exit code: 0 when
// every check passed, 1 when a check failed (the result line is still
// printed), 2 when the run could not complete.
func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name")
	seed := fl.Uint64("seed", 1, "workload seed: data order and sample order")
	seconds := fl.Float64("seconds", 10, "how long to measure")
	trace := fl.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}
	stamp, _ := json.Marshal(hostStamp())
	fmt.Fprintf(stdout, "host %s\n", stamp)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", o.workload, o.seed, *seconds, *trace)

	rep, err := w(o, sz)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	res := result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	for _, c := range rep.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
			res.Correct = false
		}
		fmt.Fprintf(stdout, "check %-40s %-6s %s\n", c.name, status, c.detail)
	}
	for _, line := range rep.budget {
		fmt.Fprintln(stdout, line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", o.workload, n, m.Value)
			return 2
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "operations attempted %d failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostStamp identifies what produced the numbers: the host's CPU count and
// GOMAXPROCS, the Go version, the commit when the build saw one, and a digest
// of the Go sources in the working directory, which identifies a checkout
// that carries no version control metadata.
func hostStamp() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
	}
}

// sourceDigest hashes the names and contents of the .go and go.mod files
// under root, skipping hidden directories such as the build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
