// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every answer against an oracle that
// shares no evaluator with faurelog, and prints one JSON line of
// metrics as its last line of output. See README.md for the workloads,
// the metrics and the layers they measure.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload table4-rib --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// config is one benchmark run.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Smoke    bool    `json:"smoke"`
	Out      string  `json:"out"` // directory for the WAL and trace files
}

// sizes fixes a workload's input sizes and operation counts.
type sizes struct {
	Prefixes   int // table4-rib RIB prefixes
	Hosts      int // fattree-join hosts
	Reads      int // world reads per table4-rib iteration
	JoinReads  int // world reads per fattree-join iteration
	Updates    int // timed state updates per batch iteration, after untimed ones that grow the heap
	CheckFlows int // table4-rib prefixes (fattree-join hosts) the answer check samples
	MinIters   int // untraced batch iterations at least

	ServePrefixes int     // serve-mixed boot RIB (generated with faure-serve's default seed)
	ServeSetups   int     // serve.New calls (and boot-state Evals) whose median is setup_s (eval_s), half before and half after the load
	ReadRate      float64 // serve-mixed reads per second
	WriteRate     float64 // serve-mixed updates per second
	DeleteEvery   int     // every n-th update is a withdrawal
	Replays       int     // traced per-layer replays of each call
	TeamSize      int     // teams in the category-i scenario
}

var fullSizes = sizes{
	Prefixes: 2000, Hosts: 1000, Reads: 400, JoinReads: 200, Updates: 90, CheckFlows: 40, MinIters: 5,
	ServePrefixes: 200, ServeSetups: 16, ReadRate: 12, WriteRate: 8, DeleteEvery: 5, Replays: 15, TeamSize: 4,
}

// smokeSizes is a tiny run the benchmark's own tests finish in seconds.
var smokeSizes = sizes{
	Prefixes: 60, Hosts: 27, Reads: 20, JoinReads: 20, Updates: 10, CheckFlows: 10, MinIters: 2,
	ServePrefixes: 20, ServeSetups: 2, ReadRate: 40, WriteRate: 20, DeleteEvery: 4, Replays: 2, TeamSize: 2,
}

func (c config) size() sizes {
	if c.Smoke {
		return smokeSizes
	}
	return fullSizes
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	errors    []string
}

var workloads = map[string]func(cfg config) (result, error){
	"table4-rib":   runBatch,
	"fattree-join": runBatch,
	"serve-mixed":  runServe,
}

func main() {
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(childMain(job))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: table4-rib, fattree-join or serve-mixed")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "tiny inputs, for a quick check")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.Out = filepath.Join(".bench_build", "perfbench")

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config) (result, error) {
	w, ok := workloads[cfg.Workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	out, err := filepath.Abs(cfg.Out)
	if err != nil {
		return result{}, err
	}
	cfg.Out = out
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return result{}, err
	}
	res, err := w(cfg)
	if err != nil {
		return result{}, err
	}
	res.Failed = len(res.errors)
	res.Correct = res.Failed == 0
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	// Every metric is printed on every workload; a layer a workload
	// does not exercise reads 0.
	for _, m := range want {
		if _, ok := res.Metrics[m.name]; !ok {
			res.Metrics[m.name] = metric{0, m.unit}
		}
	}
	if len(res.Metrics) != len(want) {
		return result{}, fmt.Errorf("internal: %d metrics reported, %d defined", len(res.Metrics), len(want))
	}
	return res, nil
}
