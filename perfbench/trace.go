package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/shard"
)

// tracer times the stack's layers from outside, through wrappers placed at
// the layer boundaries: HTTP middleware around the front handler and each
// shard worker's handler, a serve.Backend wrapper around the deployment or
// the router, and a shard.Transport wrapper under the router. Spans inside
// the program are read from its own /metrics histograms instead.
type tracer struct {
	mu sync.Mutex

	handler     mean    // front /infer handler, ms
	cacheLookup mean    // Backend.CacheGet, ns
	targets     mean    // targets per flush
	infer       mean    // Backend.Infer per flush, ms
	ball        mean    // |S| per flush: the radius TMax−1 ball around its targets
	depth       mean    // exit depth per answered target
	deltaApply  mean    // Backend.ApplyDelta, ms
	lockWait    mean    // /nodes handler entry → ApplyDelta start, ms
	dirtied     mean    // rows dirtied per delta
	workerInfer mean    // worker /shard/infer handler, ms
	deltaFanout float64 // transport ApplyDelta calls, ms summed
	wireBytes   float64
	deltas      int

	nodesAt  atomic.Int64 // UnixNano when the current /nodes request entered the handler
	ballTMax int
}

// reset drops what the tracer recorded so far, so its figures cover only
// the measured window (not bring-up or warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler, t.cacheLookup, t.targets, t.infer, t.ball, t.depth = mean{}, mean{}, mean{}, mean{}, mean{}, mean{}
	t.deltaApply, t.lockWait, t.dirtied, t.workerInfer = mean{}, mean{}, mean{}, mean{}
	t.deltaFanout, t.wireBytes, t.deltas = 0, 0, 0
}

// mean accumulates a sum and a count; callers hold tracer.mu.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) { m.sum += v; m.n++ }

func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// observeFlush records one engine call: its targets, time and answers, and
// (outside the timed part) its supporting-ball size when g is given.
func (t *tracer) observeFlush(targets []int, d time.Duration, res *core.Result, g *graph.Graph) {
	ball := -1
	if g != nil {
		ball = len(graph.Ball(g.Adj, targets, t.ballTMax-1))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.targets.add(float64(len(targets)))
	t.infer.add(ms(d))
	if ball >= 0 {
		t.ball.add(float64(ball))
	}
	if res != nil {
		for _, dep := range res.Depths {
			t.depth.add(float64(dep))
		}
	}
}

func (t *tracer) observeDelta(start time.Time, d time.Duration, dr *graph.DeltaResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deltaApply.add(ms(d))
	if at := t.nodesAt.Load(); at != 0 {
		t.lockWait.add(ms(start.Sub(time.Unix(0, at))))
	}
	if dr != nil {
		t.dirtied.add(float64(len(dr.Dirty)))
	}
	t.deltas++
}

func (t *tracer) observeLookup(d time.Duration) {
	t.mu.Lock()
	t.cacheLookup.add(float64(d))
	t.mu.Unlock()
}

// tracedDeployment wraps the single-deployment backend. Embedding keeps
// the deployment's other methods, the optional serve interfaces included.
type tracedDeployment struct {
	*core.Deployment
	tr *tracer
}

func (b *tracedDeployment) Infer(targets []int, opt core.InferenceOptions) (*core.Result, error) {
	return b.InferContext(context.Background(), targets, opt)
}

func (b *tracedDeployment) InferContext(ctx context.Context, targets []int, opt core.InferenceOptions) (*core.Result, error) {
	start := time.Now()
	res, err := b.Deployment.InferContext(ctx, targets, opt)
	b.tr.observeFlush(targets, time.Since(start), res, b.Deployment.Graph)
	return res, err
}

func (b *tracedDeployment) ApplyDelta(d graph.Delta) (*graph.DeltaResult, error) {
	start := time.Now()
	dr, err := b.Deployment.ApplyDelta(d)
	b.tr.observeDelta(start, time.Since(start), dr)
	return dr, err
}

func (b *tracedDeployment) CacheGet(node int) (cache.Entry, bool) {
	start := time.Now()
	e, ok := b.Deployment.CacheGet(node)
	b.tr.observeLookup(time.Since(start))
	return e, ok
}

// tracedRouter wraps the sharded backend the same way. The router's
// global graph is not exported, so sharded flushes report no ball size.
type tracedRouter struct {
	*shard.Router
	tr *tracer
}

func (b *tracedRouter) Infer(targets []int, opt core.InferenceOptions) (*core.Result, error) {
	return b.InferContext(context.Background(), targets, opt)
}

func (b *tracedRouter) InferContext(ctx context.Context, targets []int, opt core.InferenceOptions) (*core.Result, error) {
	start := time.Now()
	res, err := b.Router.InferContext(ctx, targets, opt)
	b.tr.observeFlush(targets, time.Since(start), res, nil)
	return res, err
}

func (b *tracedRouter) ApplyDelta(d graph.Delta) (*graph.DeltaResult, error) {
	start := time.Now()
	dr, err := b.Router.ApplyDelta(d)
	b.tr.observeDelta(start, time.Since(start), dr)
	return dr, err
}

func (b *tracedRouter) CacheGet(node int) (cache.Entry, bool) {
	start := time.Now()
	e, ok := b.Router.CacheGet(node)
	b.tr.observeLookup(time.Since(start))
	return e, ok
}

// tracedTransport times the router's per-shard delta calls. Embedding the
// ReplicaSet keeps its SetController, which the router looks for.
type tracedTransport struct {
	*shard.ReplicaSet
	tr *tracer
}

func (t *tracedTransport) ApplyDelta(ctx context.Context, shardID int, sd *shard.ShardDelta) error {
	start := time.Now()
	err := t.ReplicaSet.ApplyDelta(ctx, shardID, sd)
	t.tr.mu.Lock()
	t.tr.deltaFanout += ms(time.Since(start))
	t.tr.mu.Unlock()
	return err
}

// frontMiddleware times /infer in the front handler and marks when each
// /nodes request enters it, so the delta's wait for the serving write lock
// can be told apart from its work.
func (t *tracer) frontMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		switch r.URL.Path {
		case "/nodes":
			t.nodesAt.Store(start.UnixNano())
			h.ServeHTTP(w, r)
			t.nodesAt.Store(0)
		case "/infer":
			h.ServeHTTP(w, r)
			t.mu.Lock()
			t.handler.add(ms(time.Since(start)))
			t.mu.Unlock()
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// workerMiddleware times each worker's /shard/infer handler and counts the
// bytes it reads and writes.
func (t *tracer) workerMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shard/infer" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body := &countingReader{r: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.mu.Lock()
		t.workerInfer.add(ms(time.Since(start)))
		t.wireBytes += float64(body.n + cw.n)
		t.mu.Unlock()
	})
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// stageSums is a snapshot of the program's stage histograms: the sum in
// seconds and the count of each span kind, keyed by stage name, with
// propagation hops under "hop<h>".
type stageSums map[string][2]float64

// parseStages reads the stage and hop histograms out of a Prometheus text
// exposition.
func parseStages(r io.Reader) (stageSums, error) {
	out := stageSums{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var key, label string
		switch {
		case strings.HasPrefix(line, "nai_stage_duration_seconds_"):
			key, label = strings.TrimPrefix(line, "nai_stage_duration_seconds_"), `stage="`
		case strings.HasPrefix(line, "nai_propagate_hop_duration_seconds_"):
			key, label = strings.TrimPrefix(line, "nai_propagate_hop_duration_seconds_"), `hop="`
		default:
			continue
		}
		idx := 0
		switch {
		case strings.HasPrefix(key, "sum{"):
		case strings.HasPrefix(key, "count{"):
			idx = 1
		default:
			continue
		}
		i := strings.Index(key, label)
		if i < 0 {
			continue
		}
		rest := key[i+len(label):]
		j := strings.IndexByte(rest, '"')
		sp := strings.LastIndexByte(rest, ' ')
		if j < 0 || sp < 0 {
			continue
		}
		name := rest[:j]
		if label == `hop="` {
			name = "hop" + name
		}
		v, err := strconv.ParseFloat(rest[sp+1:], 64)
		if err != nil {
			return nil, err
		}
		cur := out[name]
		cur[idx] = v
		out[name] = cur
	}
	return out, sc.Err()
}

// meanMs returns the mean span of one stage, in ms, between two snapshots.
func meanMs(before, after stageSums, name string) float64 {
	a, b := after[name], before[name]
	if n := a[1] - b[1]; n > 0 {
		return (a[0] - b[0]) / n * 1000
	}
	return 0
}

// scrapeStages snapshots the stage histograms of a server's /metrics.
func scrapeStages(client *http.Client, url string) (stageSums, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseStages(resp.Body)
}
