package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// input is what every workload shares: the products-like graph, its SGC
// model trained without the test nodes, and the seeded split of the test
// nodes into held-out arrivals and the rest. The model and both graphs are
// written to files so that each bring-up starts from disk, as the daemon
// does.
type input struct {
	full  *graph.Graph
	split graph.Split
	model *core.Model

	dir                           string
	modelPath, fullPath, basePath string

	// The serving graph of the arrival workloads is the full graph without
	// the held-out nodes ("base"), renumbered in ascending order; arrival k
	// gets id baseN+k. serveID maps full ids to those serving ids.
	held    []int // held-out test nodes in arrival order (full ids)
	baseN   int
	serveID []int
	// arrEdges[k] lists the serving ids arrival k connects to when it
	// arrives: its base neighbors and its neighbors among earlier arrivals.
	arrEdges [][]int
	readers  []int // the other test nodes (serving ids), in seeded scan order
	valFull  []int // validation nodes, full ids (T_s tuning)
	valBase  []int // validation nodes, serving ids
}

// prepare generates the dataset, trains the model and writes the files.
// None of it is timed: set-up time starts from the files.
func prepare(cfg config) (*input, error) {
	dcfg := synth.ProductsLike(1)
	dcfg.N = cfg.size.nodes
	ds, err := synth.Generate(dcfg)
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	m, err := core.Train(ds.Graph, ds.Split, bench.QuickConfig().TrainOptions("sgc"))
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	in := &input{full: ds.Graph, split: ds.Split, model: m, valFull: ds.Split.Val}

	rng := rand.New(rand.NewSource(cfg.seed))
	test := append([]int(nil), ds.Split.Test...)
	rng.Shuffle(len(test), func(i, j int) { test[i], test[j] = test[j], test[i] })
	nHeld := cfg.size.heldOut
	if nHeld > len(test)/2 {
		nHeld = len(test) / 2
	}
	in.held = test[:nHeld]

	n := in.full.N()
	heldAt := make([]int, n)
	for i := range heldAt {
		heldAt[i] = -1
	}
	for k, v := range in.held {
		heldAt[v] = k
	}
	kept := make([]int, 0, n-nHeld)
	for v := 0; v < n; v++ {
		if heldAt[v] < 0 {
			kept = append(kept, v)
		}
	}
	base := in.full.Induce(kept)
	in.baseN = len(kept)
	in.serveID = make([]int, n)
	for v := range in.serveID {
		if k := heldAt[v]; k >= 0 {
			in.serveID[v] = in.baseN + k
		} else {
			in.serveID[v] = base.ToLocal[v]
		}
	}
	in.arrEdges = make([][]int, nHeld)
	for k, v := range in.held {
		for _, u := range in.full.Adj.RowIndices(v) {
			if j := heldAt[u]; j < 0 || j < k {
				in.arrEdges[k] = append(in.arrEdges[k], in.serveID[u])
			}
		}
	}
	for _, v := range test[nHeld:] {
		in.readers = append(in.readers, in.serveID[v])
	}
	for _, v := range in.valFull {
		in.valBase = append(in.valBase, in.serveID[v])
	}

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	if in.dir, err = os.MkdirTemp(cfg.workdir, "run-"); err != nil {
		return nil, err
	}
	in.modelPath = filepath.Join(in.dir, "model.json")
	in.fullPath = filepath.Join(in.dir, "full.graph")
	in.basePath = filepath.Join(in.dir, "base.graph")
	if err := m.SaveFile(in.modelPath); err != nil {
		return nil, err
	}
	if err := graph.WriteGraphFile(in.fullPath, in.full); err != nil {
		return nil, err
	}
	if err := graph.WriteGraphFile(in.basePath, base.Graph); err != nil {
		return nil, err
	}
	return in, nil
}

// cleanup removes the run's files.
func (in *input) cleanup() { os.RemoveAll(in.dir) }

// arrivalGraph builds, from the original edge list, the serving graph as it
// stands after arrivals 0..k-1 (k = 0 is the base graph): base nodes in
// ascending full-id order, then the arrivals in order.
func (in *input) arrivalGraph(k int) (*graph.Graph, error) {
	n := in.baseN + k
	fullOf := make([]int, n)
	for v, s := range in.serveID {
		if s < n {
			fullOf[s] = v
		}
	}
	var src, dst []int
	for s, v := range fullOf {
		for _, u := range in.full.Adj.RowIndices(v) {
			if t := in.serveID[u]; t < n && s < t {
				src = append(src, s)
				dst = append(dst, t)
			}
		}
	}
	labels := make([]int, n)
	for s, v := range fullOf {
		labels[s] = in.full.Labels[v]
	}
	return graph.New(sparse.FromEdges(n, src, dst, true),
		in.full.Features.GatherRows(fullOf), labels, in.full.NumClasses)
}

// arrivalFeatures returns arrival k's feature row.
func (in *input) arrivalFeatures(k int) []float64 {
	return append([]float64(nil), in.full.Features.Row(in.held[k])...)
}

// tuneThreshold converts the 0.3 validation-distance quantile into T_s the
// way the daemon does: the distances of the validation nodes between their
// one-hop features and the stationary state, over the serving graph.
func tuneThreshold(dep *core.Deployment, val []int, q float64) float64 {
	x1 := dep.Adj.MulDense(dep.Graph.Features)
	st := dep.Stationary()
	d := mat.RowDistances(x1.GatherRows(val), st.Rows(val))
	sort.Float64s(d)
	if len(d) == 0 {
		return 0
	}
	return d[int(q*float64(len(d)-1))]
}
