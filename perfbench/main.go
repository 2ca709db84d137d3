// Command perfbench is the repository's benchmark. It runs one named
// workload against the NAI serving stack, checks the stack's answers
// against references computed apart from the serving path, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload arrivals --seed 3 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a user of the stack
// sees; with --trace 1 the run is split into an untraced and a traced half
// and the metrics are per layer, plus the throughput ratio between the two
// halves (the cost of the benchmark's own tracing). README.md lists the
// workloads, the metrics and which end-to-end metric each layer moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wBatch   = "batch"
	wArrive  = "arrivals"
	wSharded = "sharded-arrivals"
)

var workloads = []string{wBatch, wArrive, wSharded}

// sizes fixes how much input one run builds and how much it checks.
type sizes struct {
	nodes         int           // dataset nodes (the products-like preset)
	heldOut       int           // test nodes held out as arrivals
	arrivalGap    time.Duration // the writer's schedule: one arrival per gap
	batch         int           // offline batch size (Table V protocol)
	setups        int           // bring-ups timed for setup_s
	checkArrivals int           // arrivals re-checked against a rebuild
	checkReads    int           // reader nodes re-checked after the last arrival
}

// fullSize is the benchmark's input: the full-size products-like preset.
var fullSize = sizes{
	nodes:         10000,
	heldOut:       1000,
	arrivalGap:    150 * time.Millisecond,
	batch:         500,
	setups:        3,
	checkArrivals: 4,
	checkReads:    128,
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	size     sizes
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed: the held-out arrivals, their order and the readers' scan order")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's model and graph files")
	reference := flag.Bool("report", false, "print the reference figures README.md records instead of running a workload")
	flag.Parse()

	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workdir:  *workdir,
		size:     fullSize,
	}
	if *reference {
		if err := writeReport(os.Stdout, cfg); err != nil {
			fail(err)
		}
		return
	}

	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		fail(fmt.Errorf("unknown --workload %q: want one of %s", *workload, strings.Join(workloads, ", ")))
	case *seconds < 1:
		fail(fmt.Errorf("--seconds %d: want at least 1", *seconds))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace %d: want 0 or 1", *trace))
	}
	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
