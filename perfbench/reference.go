package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/scalable"
	"repro/internal/sparse"
)

// reference holds Algorithm 1's answers for every node of one graph,
// computed over the whole graph apart from the serving engine: full-graph
// propagation with scalable.Propagate, the stationary state X(∞) from its
// closed form (Eqs. 6–7), Eq. 9's exit rule ‖X^(l)_i − X(∞)_i‖² < T_s² and
// the per-depth classifiers. The engine's batch-local, pooled and parallel
// path must reproduce it bit for bit.
type reference struct {
	pred, depth []int
}

// stationaryBlock is the width of the two-level sum the program fixes for
// X(∞)'s weighted feature sum (Stationary's contract): blocks of this many
// nodes are summed in order, then the block sums in order. The reference
// keeps the same summation tree, since a bit-exact comparison needs the
// same rounding.
const stationaryBlock = 256

// newReference computes the distance-mode answers of every node of g at the
// given operating point.
func newReference(m *core.Model, g *graph.Graph, opt core.InferenceOptions) (*reference, error) {
	if opt.Mode != core.ModeDistance {
		return nil, fmt.Errorf("reference: only distance mode is served by the benchmark")
	}
	n, f := g.N(), g.F()
	feats := scalable.Propagate(sparse.NormalizedAdjacency(g.Adj, m.Gamma), g.Features, opt.TMax)

	looped := make([]float64, n)
	for i := range looped {
		looped[i] = float64(len(g.Adj.RowIndices(i)) + 1)
	}
	ws := make([]float64, f)
	block := make([]float64, f)
	for lo := 0; lo < n; lo += stationaryBlock {
		for c := range block {
			block[c] = 0
		}
		for j := lo; j < lo+stationaryBlock && j < n; j++ {
			w := math.Pow(looped[j], 1-m.Gamma)
			for c, v := range g.Features.Row(j) {
				block[c] += w * v
			}
		}
		for c, v := range block {
			ws[c] += v
		}
	}
	scale := 1 / float64(g.Adj.NNZ()+n)

	ref := &reference{pred: make([]int, n), depth: make([]int, n)}
	byDepth := make([][]int, opt.TMax+1)
	xinf := make([]float64, f)
	for i := 0; i < n; i++ {
		coef := math.Pow(looped[i], m.Gamma) * scale
		for c, v := range ws {
			xinf[c] = coef * v
		}
		depth := opt.TMax
		for l := opt.TMin; l < opt.TMax; l++ {
			var s float64
			for c, v := range feats[l].Row(i) {
				d := v - xinf[c]
				s += d * d
			}
			if s < opt.Ts*opt.Ts {
				depth = l
				break
			}
		}
		ref.depth[i] = depth
		byDepth[depth] = append(byDepth[depth], i)
	}
	for l, nodes := range byDepth {
		if len(nodes) == 0 {
			continue
		}
		stack := make([]*mat.Matrix, l+1)
		for j := range stack {
			stack[j] = feats[j].GatherRows(nodes)
		}
		for k, p := range m.Classifiers[l].Predict(m.Combiner.Combine(stack, l)) {
			ref.pred[nodes[k]] = p
		}
	}
	return ref, nil
}

// mismatch compares served answers for targets against the reference and
// describes the first difference ("" when all agree).
func (r *reference) mismatch(targets, pred, depth []int) string {
	if len(pred) != len(targets) || len(depth) != len(targets) {
		return fmt.Sprintf("%d targets but %d predictions and %d depths", len(targets), len(pred), len(depth))
	}
	for i, v := range targets {
		if pred[i] != r.pred[v] || depth[i] != r.depth[v] {
			return fmt.Sprintf("node %d: served class %d at depth %d, reference class %d at depth %d",
				v, pred[i], depth[i], r.pred[v], r.depth[v])
		}
	}
	return ""
}
