package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Operation kinds counted per run. Any non-2xx answer counts as failed.
const (
	opInfer = iota
	opNodes
	numOps
)

var opNames = [numOps]string{"infer", "nodes"}

const (
	readSize = 8 // targets per reader request
	clients  = 2 // batch goroutines: one per core of the 2-vCPU reference host
)

// phase is what one measured run of a workload collects.
type phase struct {
	attempted, failed [numOps]atomic.Int64

	mu      sync.Mutex
	problem string // first correctness failure, "" when none

	setup      []float64 // s per bring-up
	throughput float64   // nodes/s
	latency    []float64 // ms per read request (per batch on batch)
	arrival    []float64 // ms from a node's arrival to its answer
	arrivalN   []int     // nodes per arrival sample (batch); nil means one each
	right, all int       // accuracy counts
	macs       float64   // MACs per node the engine answered
	heapMB     float64

	// Traced runs only: the program's stage histograms and the cache
	// counters around the measured window, and the shard sizes.
	stagesBefore, stagesAfter stageSums
	cacheBefore, cacheAfter   cache.Stats
	rowsPerWorker             float64
}

func (p *phase) count(kind int, ok bool) {
	p.attempted[kind].Add(1)
	if !ok {
		p.failed[kind].Add(1)
	}
}

// arrivals counts the arrival samples, weights included.
func (p *phase) arrivals() int {
	if p.arrivalN == nil {
		return len(p.arrival)
	}
	total := 0
	for _, n := range p.arrivalN {
		total += n
	}
	return total
}

// wrong records a correctness failure; the first one is reported.
func (p *phase) wrong(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.problem == "" {
		p.problem = fmt.Sprintf(format, args...)
	}
}

func (p *phase) score(pred, label int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.all++
	if pred == label {
		p.right++
	}
}

// liveHeap returns the live heap in bytes after two forced collections:
// the second also frees what sync.Pool victim caches still held.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// setUp brings a stack up n times and keeps the last: each bring-up is
// timed from a collected heap, and all but the last are torn down.
func setUp(ph *phase, n int, up func() (*stack, error)) (*stack, error) {
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		st, err := up()
		if err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(start).Seconds())
		if i == n-1 {
			return st, nil
		}
		st.close()
	}
}

// sliceRate returns the median, over half-second slices of the window, of
// the nodes answered per second, given when each request of readSize
// nodes was answered. The median keeps a slow stretch of the host from
// moving the figure.
func sliceRate(done []time.Time, start time.Time, dur time.Duration) float64 {
	slices := int(dur / (time.Second / 2))
	if slices < 1 {
		slices = 1
	}
	width := dur / time.Duration(slices)
	counts := make([]float64, slices)
	for _, t := range done {
		if s := int(t.Sub(start) / width); s >= 0 && s < slices {
			counts[s] += readSize
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

// runBatch is offline scoring in the Table V protocol: every test node, in
// batches of 500, by two goroutines pulling batches — the fan-out
// Deployment.Infer runs with Workers = 2 — so each batch is timed alone.
// It bypasses the server, the cache and the shard layer.
func runBatch(cfg config, in *input, dur time.Duration, setups int, tr *tracer) (*phase, error) {
	ph := &phase{}
	base := liveHeap()
	st, err := setUp(ph, setups, func() (*stack, error) {
		return bringUp(kindEngine, in, in.fullPath, in.valFull, nil)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	ref, err := newReference(in.model, in.full, st.opt)
	if err != nil {
		return nil, err
	}
	var o *obs.Obs
	if tr != nil {
		o = obs.New(obs.Options{})
		ph.stagesBefore = stageSums{}
	}
	batches := graph.Batches(in.split.Test, cfg.size.batch)
	opt := st.opt
	type answer struct {
		res  *core.Result
		lat  time.Duration
		done time.Duration
	}
	var passRates []float64
	var macs, answered float64
	deadline := time.Now().Add(dur)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		out := make([]answer, len(batches))
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(batches); i = int(next.Add(1)) - 1 {
					trc := o.StartTrace()
					t0 := time.Now()
					res, err := st.dep.InferContext(obs.ContextWithTrace(context.Background(), trc), batches[i], opt)
					lat := time.Since(t0)
					o.FinishTrace(trc, "", "ok", len(batches[i]))
					if tr != nil {
						tr.observeFlush(batches[i], lat, res, st.dep.Graph)
					}
					if err != nil {
						res = nil
					}
					out[i] = answer{res: res, lat: lat, done: time.Since(start)}
				}
			}()
		}
		wg.Wait()
		passRates = append(passRates, float64(len(in.split.Test))/time.Since(start).Seconds())
		for i, a := range out {
			ph.count(opInfer, a.res != nil)
			if a.res == nil {
				continue
			}
			ph.latency = append(ph.latency, ms(a.lat))
			if msg := ref.mismatch(batches[i], a.res.Pred, a.res.Depths); msg != "" {
				ph.wrong("batch: %s", msg)
			}
			ph.arrival = append(ph.arrival, ms(a.done))
			ph.arrivalN = append(ph.arrivalN, len(batches[i]))
			for k, v := range batches[i] {
				ph.score(a.res.Pred[k], in.full.Labels[v])
			}
			macs += float64(a.res.MACs.Total())
			answered += float64(len(batches[i]))
		}
	}
	ph.throughput = median(passRates)
	ph.macs = macs / answered
	if tr != nil {
		var buf bytes.Buffer
		if err := o.Reg.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		if ph.stagesAfter, err = parseStages(&buf); err != nil {
			return nil, err
		}
	} else {
		ph.heapMB = (liveHeap() - base) / (1 << 20)
	}
	return ph, nil
}

// runArrivals is the inductive setting behind the HTTP server: a writer
// streams held-out nodes on a fixed schedule (POST /nodes with the node's
// features and its edges to nodes already present, then POST /infer for
// its id) while a reader scans the other test nodes, 8 per request.
func runArrivals(cfg config, in *input, sharded bool, dur time.Duration, setups int, tr *tracer) (*phase, error) {
	ph := &phase{}
	kind := kindSingle
	if sharded {
		kind = kindSharded
	}
	base := liveHeap()
	st, err := setUp(ph, setups, func() (*stack, error) {
		return bringUp(kind, in, in.basePath, in.valBase, tr)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	if err := ph.beginTrace(st, tr); err != nil {
		return nil, err
	}

	n := int(dur / cfg.size.arrivalGap)
	if n > len(in.held) {
		n = len(in.held)
	}
	if n < 1 {
		n = 1
	}
	arrPred := make([]int, n)
	arrDepth := make([]int, n)
	arrived := make([]bool, n)

	// The reader's most recent requests; the writer snapshots them just
	// before the last arrival, so the final check re-reads nodes the cache
	// held across that delta.
	var recentMu sync.Mutex
	recent := make([][]int, 0, cfg.size.checkReads/2/readSize+1)
	var staleProbe []int

	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(k) * cfg.size.arrivalGap)
			time.Sleep(time.Until(due))
			if k == n-1 {
				recentMu.Lock()
				for _, r := range recent {
					staleProbe = append(staleProbe, r...)
				}
				recentMu.Unlock()
			}
			id := in.baseN + k
			req := serve.NodesRequest{Features: [][]float64{in.arrivalFeatures(k)}}
			for _, u := range in.arrEdges[k] {
				req.Edges = append(req.Edges, [2]int{id, u})
			}
			var nr serve.NodesResponse
			code, err := st.call(http.MethodPost, "/nodes", req, &nr)
			ph.count(opNodes, err == nil && code == http.StatusOK)
			if err != nil || code != http.StatusOK {
				continue
			}
			if nr.FirstID != id || nr.Count != 1 {
				ph.wrong("arrival %d: assigned ids %d..+%d, want %d", k, nr.FirstID, nr.Count, id)
			}
			resp, code, err := st.infer([]int{id})
			ph.count(opInfer, err == nil && code == http.StatusOK)
			if err != nil || code != http.StatusOK {
				continue
			}
			ph.arrival = append(ph.arrival, ms(time.Since(due)))
			arrPred[k], arrDepth[k], arrived[k] = resp.Preds[0], resp.Depths[0], true
			ph.score(resp.Preds[0], in.full.Labels[in.held[k]])
		}
	}()
	var done []time.Time
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			nodes := make([]int, readSize)
			for j := range nodes {
				nodes[j] = in.readers[(i*readSize+j)%len(in.readers)]
			}
			t0 := time.Now()
			_, code, err := st.infer(nodes)
			end := time.Now()
			ph.count(opInfer, err == nil && code == http.StatusOK)
			if err != nil || code != http.StatusOK {
				continue
			}
			ph.latency = append(ph.latency, ms(end.Sub(t0)))
			done = append(done, end)
			recentMu.Lock()
			if len(recent) == cap(recent) {
				recent = append(recent[:0], recent[1:]...)
			}
			recent = append(recent, nodes)
			recentMu.Unlock()
		}
	}()
	wg.Wait()
	ph.throughput = sliceRate(done, start, dur)
	if err := ph.endTrace(st, tr); err != nil {
		return nil, err
	}
	if err := ph.readStats(st); err != nil {
		return nil, err
	}
	if tr == nil {
		ph.heapMB = (liveHeap() - base) / (1 << 20)
	}

	// Checks: a seeded sample of arrivals (always the last) against a
	// deployment rebuilt from the original edge list as the graph stood
	// after that arrival, then reader nodes against the final rebuild.
	rng := rand.New(rand.NewSource(cfg.seed + 7))
	sample := map[int]bool{n - 1: true}
	for len(sample) < cfg.size.checkArrivals && len(sample) < n {
		sample[rng.Intn(n)] = true
	}
	ks := make([]int, 0, len(sample))
	for k := range sample {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var final *core.Deployment
	for _, k := range ks {
		g, err := in.arrivalGraph(k + 1)
		if err != nil {
			return nil, err
		}
		dep, err := core.NewDeployment(in.model, g)
		if err != nil {
			return nil, err
		}
		final = dep
		if !arrived[k] {
			continue
		}
		res, err := dep.Infer([]int{in.baseN + k}, st.opt)
		if err != nil {
			return nil, err
		}
		if res.Pred[0] != arrPred[k] || res.Depths[0] != arrDepth[k] {
			ph.wrong("arrival %d: served class %d at depth %d, rebuild gives class %d at depth %d",
				k, arrPred[k], arrDepth[k], res.Pred[0], res.Depths[0])
		}
	}
	probe := append([]int(nil), staleProbe...)
	for len(probe) < cfg.size.checkReads {
		probe = append(probe, in.readers[rng.Intn(len(in.readers))])
	}
	want, err := final.Infer(probe, st.opt)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(probe); lo += readSize {
		hi := min(lo+readSize, len(probe))
		resp, code, err := st.infer(probe[lo:hi])
		ph.count(opInfer, err == nil && code == http.StatusOK)
		if err != nil || code != http.StatusOK {
			continue
		}
		for i := range resp.Preds {
			if resp.Preds[i] != want.Pred[lo+i] || resp.Depths[i] != want.Depths[lo+i] {
				ph.wrong("after the last arrival, node %d: served class %d at depth %d, rebuild gives class %d at depth %d",
					probe[lo+i], resp.Preds[i], resp.Depths[i], want.Pred[lo+i], want.Depths[lo+i])
			}
		}
	}
	return ph, nil
}

// readStats takes the engine's MACs per answered node from /stats.
func (ph *phase) readStats(st *stack) error {
	var s serve.Stats
	code, err := st.call(http.MethodGet, "/stats", nil, &s)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /stats: status %d, %v", code, err)
	}
	if s.Targets > 0 {
		ph.macs = float64(s.MACs.Total()) / float64(s.Targets)
	}
	return nil
}

// beginTrace snapshots the program's counters before a traced window.
func (ph *phase) beginTrace(st *stack, tr *tracer) error {
	if tr == nil {
		return nil
	}
	var err error
	ph.stagesBefore, err = scrapeStages(st.client, st.url)
	ph.cacheBefore = cacheStats(st)
	tr.reset()
	return err
}

// endTrace snapshots them after it.
func (ph *phase) endTrace(st *stack, tr *tracer) error {
	if tr == nil {
		return nil
	}
	var err error
	ph.stagesAfter, err = scrapeStages(st.client, st.url)
	ph.cacheAfter = cacheStats(st)
	if st.router != nil {
		sizes := st.router.Sizes()
		for _, s := range sizes {
			ph.rowsPerWorker += float64(s.Owned+s.Halo) / float64(len(sizes))
		}
	}
	return err
}

func cacheStats(st *stack) cache.Stats {
	if c := st.srv.Stats().Cache; c != nil {
		return c.Stats
	}
	return cache.Stats{}
}
