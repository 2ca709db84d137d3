package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// writeReport prints the reference figures README.md records, on the batch
// workload's input: NAI against vanilla fixed-depth inference (the Table V
// analog), NAI's exit-depth distribution (the Table VI analog), and the
// supporting-ball size |S| of one flush against the MACs per node it costs.
func writeReport(w io.Writer, cfg config) error {
	in, err := prepare(cfg)
	if err != nil {
		return err
	}
	defer in.cleanup()
	st, err := bringUp(kindEngine, in, in.fullPath, in.valFull, nil)
	if err != nil {
		return err
	}
	defer st.close()
	test := in.split.Test
	nai := st.opt
	vanilla := core.InferenceOptions{Mode: core.ModeFixed, TMin: in.model.K, TMax: in.model.K}

	fmt.Fprintf(w, "| inference | per-node time (µs) | accuracy | MACs/node |\n|---|---|---|---|\n")
	var naiRes *core.Result
	for _, c := range []struct {
		name string
		opt  core.InferenceOptions
	}{{"vanilla (fixed depth K)", vanilla}, {"NAI (NAP_d)", nai}} {
		c.opt.BatchSize, c.opt.Workers = cfg.size.batch, clients
		var times []float64
		var res *core.Result
		for pass := 0; pass < 5; pass++ {
			start := time.Now()
			if res, err = st.dep.Infer(test, c.opt); err != nil {
				return err
			}
			times = append(times, float64(time.Since(start).Microseconds())/float64(len(test)))
		}
		right := 0
		for i, v := range test {
			if res.Pred[i] == in.full.Labels[v] {
				right++
			}
		}
		fmt.Fprintf(w, "| %s | %.1f | %.4f | %d |\n", c.name, median(times),
			float64(right)/float64(len(test)), res.MACs.Total()/len(test))
		naiRes = res
	}

	fmt.Fprintf(w, "\n| exit depth | nodes | share |\n|---|---|---|\n")
	for l := 1; l < len(naiRes.NodesPerDepth); l++ {
		fmt.Fprintf(w, "| %d | %d | %.3f |\n", l, naiRes.NodesPerDepth[l],
			float64(naiRes.NodesPerDepth[l])/float64(len(test)))
	}

	fmt.Fprintf(w, "\n| flush size | mean \\|S\\| | MACs/node |\n|---|---|---|\n")
	for _, size := range []int{1, 8, 64, 500} {
		batches := graph.Batches(test, size)[:min(20, (len(test)+size-1)/size)]
		var ball, macs, nodes int
		for _, b := range batches {
			res, err := st.dep.Infer(b, nai)
			if err != nil {
				return err
			}
			ball += len(graph.Ball(in.full.Adj, b, nai.TMax-1))
			macs += res.MACs.Total()
			nodes += len(b)
		}
		fmt.Fprintf(w, "| %d | %d | %d |\n", size, ball/len(batches), macs/nodes)
	}
	return nil
}
