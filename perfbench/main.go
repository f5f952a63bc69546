// Command perfbench is stwave's end-to-end benchmark. One invocation runs
// one workload on inputs generated from a seed, checks every output, and
// prints its metrics by name with their units. The last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics.
//
//	bash perfbench/run.sh --workload archive --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones BENCHMARK.json
// declares. With --trace 1 the same workload runs half its time untraced
// and half under span roots the benchmark opens around each public call,
// and the metrics are the per-layer ledger. README.md in this directory
// says why each workload exists and which end-to-end metric each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// scale sets the input sizes. The command runs fullScale; the smoke
// test runs tinyScale so it finishes in seconds.
type scale struct {
	N            int   // grid edge: every slice is N³
	Modes        int   // Fourier modes of the synthetic turbulence
	Slices       int   // input slices of archive and serve
	TargetSlices int   // first slices compressed by target_nrmse
	IngestPass   int   // slices per ingest run
	Setups       int   // set-ups timed for setup_s
	CacheBytes   int64 // serve: decoded-window cache budget
}

var fullScale = scale{N: 64, Modes: 8, Slices: 80, TargetSlices: 40, IngestPass: 400, Setups: 3, CacheBytes: 64 << 20}

// tinyScale keeps every window size and ratio of fullScale and shrinks
// the grid, so the smoke test runs the same code paths.
var tinyScale = scale{N: 32, Modes: 4, Slices: 80, TargetSlices: 40, IngestPass: 40, Setups: 1, CacheBytes: 8 << 20}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	scale    scale
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"archive":      func(b *bench) error { return runArchive(b, 0) },
	"archive_w1":   func(b *bench) error { return runArchive(b, 1) },
	"target_nrmse": runTarget,
	"ingest":       runIngest,
	"serve":        runServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/work", "directory for generated inputs and containers")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale = fullScale
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload in a private scratch directory under
// cfg.workDir and returns its result line.
func run(cfg config, out io.Writer) (*result, error) {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := newBench(cfg, dir, out)
	b.printEnv()
	if err := runner(b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	b.printMetrics()
	return b.result(), nil
}
