package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// tailQ is the percentile reported as latency_tail_ms and arrival_tail_ms
// on every workload. Each run at the default length has at least 20
// samples beyond it; higher percentiles did not repeat between runs on the
// 2-vCPU reference host (README.md gives the measured spreads).
const tailQ = 0.90

// hops is the serving depth T_max = K of the quick SGC model; the per-hop
// propagation metrics are named after it.
const hops = 4

// procs is the GOMAXPROCS each workload runs at (0 keeps the default, one
// per core). The arrival workloads are latency-bound: one flush at a time,
// with a two-way fork-join inside every SpMM. On the 2-vCPU reference host,
// where the hypervisor steals about a tenth of a vCPU, those fork-joins
// made the reader's median latency swing between 18 and 37 ms from run to
// run at GOMAXPROCS=2, against a few percent at GOMAXPROCS=1.
var procs = map[string]int{wArrive: 1, wSharded: 1}

type runner func(cfg config, in *input, dur time.Duration, setups int, tr *tracer) (*phase, error)

func runnerFor(workload string) runner {
	if workload == wBatch {
		return runBatch
	}
	return func(cfg config, in *input, dur time.Duration, setups int, tr *tracer) (*phase, error) {
		return runArrivals(cfg, in, workload == wSharded, dur, setups, tr)
	}
}

// run prepares the input and runs the workload once: untraced for the
// end-to-end metrics, or as an untraced half and a traced half for the
// per-layer ones.
func run(cfg config) (*result, error) {
	in, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer in.cleanup()
	if p := procs[cfg.workload]; p > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	}
	w := runnerFor(cfg.workload)
	if !cfg.trace {
		ph, err := w(cfg, in, cfg.seconds, cfg.size.setups, nil)
		if err != nil {
			return nil, err
		}
		res := ph.result()
		res.Metrics = endToEnd(ph)
		report(cfg, ph, res)
		return res, nil
	}
	half := cfg.seconds / 2
	plain, err := w(cfg, in, half, 1, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{ballTMax: in.model.K}
	traced, err := w(cfg, in, half, 1, tr)
	if err != nil {
		return nil, err
	}
	res := traced.result()
	res.Attempted += plain.result().Attempted
	res.Failed += plain.result().Failed
	res.Correct = res.Correct && plain.problem == ""
	res.Metrics = perLayer(traced, tr, traced.throughput/plain.throughput)
	report(cfg, traced, res)
	if plain.problem != "" {
		fmt.Fprintln(os.Stderr, "perfbench: untraced half:", plain.problem)
	}
	return res, nil
}

func (ph *phase) result() *result {
	res := &result{Correct: ph.problem == ""}
	for k := 0; k < numOps; k++ {
		res.Attempted += ph.attempted[k].Load()
		res.Failed += ph.failed[k].Load()
	}
	return res
}

// report writes the run's accounting to standard error: operations
// attempted and failed per kind, sample counts and any correctness failure.
func report(cfg config, ph *phase, res *result) {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: workload=%s seed=%d seconds=%v trace=%v GOMAXPROCS=%d",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, runtime.GOMAXPROCS(0))
	for k := 0; k < numOps; k++ {
		fmt.Fprintf(&b, " %s=%d/%d-failed", opNames[k], ph.attempted[k].Load(), ph.failed[k].Load())
	}
	fmt.Fprintf(&b, " latency_samples=%d arrival_samples=%d accuracy_samples=%d", len(ph.latency), ph.arrivals(), ph.all)
	fmt.Fprintln(os.Stderr, b.String())
	if ph.problem != "" {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", ph.problem)
	}
}

func endToEnd(ph *phase) map[string]metric {
	acc := 0.0
	if ph.all > 0 {
		acc = float64(ph.right) / float64(ph.all)
	}
	return map[string]metric{
		"setup_s":         {median(ph.setup), "s"},
		"throughput_nps":  {ph.throughput, "nodes/s"},
		"latency_p50_ms":  {quantile(ph.latency, 0.5), "ms"},
		"latency_tail_ms": {quantile(ph.latency, tailQ), "ms"},
		"arrival_p50_ms":  {weightedQuantile(ph.arrival, ph.arrivalN, 0.5), "ms"},
		"arrival_tail_ms": {weightedQuantile(ph.arrival, ph.arrivalN, tailQ), "ms"},
		"accuracy":        {acc, "ratio"},
		"macs_per_node":   {ph.macs, "MACs/node"},
		"heap_mb":         {ph.heapMB, "MiB"},
	}
}

// perLayer assembles the per-layer metrics of a traced run. A layer the
// workload bypasses reports 0.
func perLayer(ph *phase, tr *tracer, ratio float64) map[string]metric {
	s0, s1 := ph.stagesBefore, ph.stagesAfter
	c0, c1 := ph.cacheBefore, ph.cacheAfter
	hitRatio := 0.0
	if looks := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses); looks > 0 {
		hitRatio = float64(c1.Hits-c0.Hits) / float64(looks)
	}
	perDelta := func(v float64) float64 {
		if tr.deltas == 0 {
			return 0
		}
		return v / float64(tr.deltas)
	}
	wire := 0.0
	if tr.workerInfer.n > 0 {
		wire = tr.wireBytes / float64(tr.targets.n)
	}
	m := map[string]metric{
		"serve.handler_ms":            {tr.handler.value(), "ms"},
		"cache.lookup_ns":             {tr.cacheLookup.value(), "ns"},
		"cache.hit_ratio":             {hitRatio, "ratio"},
		"serve.queue_wait_ms":         {meanMs(s0, s1, "queue"), "ms"},
		"serve.targets_per_flush":     {tr.targets.value(), "targets"},
		"core.infer_ms":               {tr.infer.value(), "ms"},
		"core.ball_nodes":             {tr.ball.value(), "nodes"},
		"graph.bfs_ms":                {meanMs(s0, s1, "bfs"), "ms"},
		"core.delta_apply_ms":         {tr.deltaApply.value(), "ms"},
		"serve.delta_lock_wait_ms":    {tr.lockWait.value(), "ms"},
		"graph.rows_dirtied":          {tr.dirtied.value(), "rows"},
		"cache.invalidated_per_delta": {perDelta(float64(c1.Invalidations - c0.Invalidations)), "entries"},
		"sparse.extract_ms":           {meanMs(s0, s1, "extract"), "ms"},
		"sparse.propagate_ms":         {meanMs(s0, s1, "propagate"), "ms"},
		"core.decide_ms":              {meanMs(s0, s1, "decide"), "ms"},
		"core.classify_ms":            {meanMs(s0, s1, "classify"), "ms"},
		"core.mean_exit_depth":        {tr.depth.value(), "hops"},
		"shard.fanout_ms":             {meanMs(s0, s1, "fanout"), "ms"},
		"shard.rpc_ms":                {meanMs(s0, s1, "rpc"), "ms"},
		"shard.encode_ms":             {meanMs(s0, s1, "encode"), "ms"},
		"shard.decode_ms":             {meanMs(s0, s1, "decode"), "ms"},
		"shard.worker_infer_ms":       {tr.workerInfer.value(), "ms"},
		"shard.wire_bytes_per_flush":  {wire, "bytes"},
		"shard.delta_fanout_ms":       {perDelta(tr.deltaFanout), "ms"},
		"shard.rows_per_worker":       {ph.rowsPerWorker, "rows"},
		"trace.throughput_ratio":      {ratio, "ratio"},
	}
	for h := 1; h <= hops; h++ {
		m[fmt.Sprintf("sparse.propagate_hop%d_ms", h)] = metric{meanMs(s0, s1, fmt.Sprintf("hop%d", h)), "ms"}
	}
	return m
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// weightedQuantile is quantile over samples where xs[i] stands for n[i]
// equal samples (n == nil: one each) — a batch answers all its nodes at
// once, so one value per batch gives the per-node distribution.
func weightedQuantile(xs []float64, n []int, q float64) float64 {
	if n == nil {
		return quantile(xs, q)
	}
	idx := make([]int, len(xs))
	total := 0
	for i := range idx {
		idx[i] = i
		total += n[i]
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	rank := int(math.Ceil(q * float64(total)))
	for _, i := range idx {
		if rank -= n[i]; rank <= 0 {
			return xs[i]
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by the nearest-rank rule (0 for no
// samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
