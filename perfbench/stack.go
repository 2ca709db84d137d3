package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// The daemon's defaults (cmd/naiserve), which the online workloads serve
// with.
const (
	maxBatch        = 64
	maxWait         = 2 * time.Millisecond
	defaultCache    = 4096
	maxPending      = 4096
	defaultDeadline = 2 * time.Second
	tsQuantile      = 0.3
	shardWorkers    = 2
	healthInterval  = time.Second
)

// stackKind says what a bring-up builds.
type stackKind int

const (
	kindEngine  stackKind = iota // a core.Deployment, no server (batch)
	kindSingle                   // serve.Server over one deployment
	kindSharded                  // serve.Server over a router and 2 HTTP workers
)

// stack is one brought-up serving stack.
type stack struct {
	dep    *core.Deployment // the engine (kindEngine)
	router *shard.Router    // kindSharded
	srv    *serve.Server
	opt    core.InferenceOptions
	url    string
	client *http.Client
	stops  []func()
}

// bringUp builds a stack from the model and graph files and returns once it
// is ready to serve: for the servers, once the listener answers /healthz.
// A non-nil tr wraps the stack's layers in the benchmark's timers.
func bringUp(kind stackKind, in *input, graphPath string, val []int, tr *tracer) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	m, err := core.LoadModelFile(in.modelPath)
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadGraphFile(graphPath)
	if err != nil {
		return nil, err
	}
	dep, err := core.NewDeployment(m, g)
	if err != nil {
		return nil, err
	}
	st.opt = core.InferenceOptions{Mode: core.ModeDistance, TMin: 1, TMax: m.K,
		Ts: tuneThreshold(dep, val, tsQuantile)}
	if err := st.opt.Validate(m); err != nil {
		return nil, err
	}
	if kind == kindEngine {
		st.dep = dep
		return st, nil
	}

	var backend serve.Backend
	if kind == kindSingle {
		backend = dep
		if tr != nil {
			backend = &tracedDeployment{Deployment: dep, tr: tr}
		}
	} else {
		// Each worker loads its own copy of the graph, as a worker process
		// of the daemon does, and serves the shard protocol on loopback.
		addrs := make([][]string, shardWorkers)
		for p := range addrs {
			wg, err := graph.ReadGraphFile(graphPath)
			if err != nil {
				return nil, err
			}
			w, err := shard.NewWorker(m, wg, shard.Config{Shards: shardWorkers, Radius: m.K}, p)
			if err != nil {
				return nil, err
			}
			h := shard.WorkerHandlerObs(w, obs.New(obs.Options{SlowThreshold: 250 * time.Millisecond, Logger: logger}))
			if tr != nil {
				h = tr.workerMiddleware(h)
			}
			addr, err := st.listen(h)
			if err != nil {
				return nil, err
			}
			addrs[p] = []string{addr}
		}
		rs, err := shard.NewHTTPReplicaSet(addrs, shard.HTTPTransportConfig{})
		if err != nil {
			return nil, err
		}
		var t shard.Transport = rs
		if tr != nil {
			t = &tracedTransport{ReplicaSet: rs, tr: tr}
		}
		rt, err := shard.NewRouterTransport(m, g, shard.Config{Shards: shardWorkers, Radius: m.K}, t)
		if err != nil {
			return nil, fmt.Errorf("dialing shard workers: %w", err)
		}
		st.stops = append(st.stops, func() { rt.Close() })
		rt.StartHealthProbe(healthInterval)
		st.router = rt
		backend = rt
		if tr != nil {
			backend = &tracedRouter{Router: rt, tr: tr}
		}
	}

	st.srv = serve.NewBackend(backend, serve.Config{
		Opt: st.opt, MaxBatch: maxBatch, MaxWait: maxWait, CacheSize: defaultCache,
		MaxPending: maxPending, DefaultDeadline: defaultDeadline, MaxDeadline: 30 * time.Second,
		SlowTrace: 250 * time.Millisecond, Logger: logger})
	st.stops = append(st.stops, st.srv.Close)
	var h http.Handler = st.srv.Handler()
	if tr != nil {
		h = tr.frontMiddleware(h)
	}
	addr, err := st.listen(h)
	if err != nil {
		return nil, err
	}
	st.url = "http://" + addr
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 30 * time.Second}
	st.stops = append(st.stops, st.client.CloseIdleConnections)
	var health serve.HealthResponse
	if code, err := st.call(http.MethodGet, "/healthz", nil, &health); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("server not ready: status %d, %v", code, err)
	}
	return st, nil
}

// logger receives the stack's logs, on standard error like the daemon's.
var logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

// listen serves h on a fresh loopback port until the stack closes.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed once Shutdown runs
	}()
	st.stops = append(st.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
	})
	return ln.Addr().String(), nil
}

// close stops everything the bring-up started, newest first.
func (st *stack) close() {
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
	st.stops = nil
}

// call sends one JSON request to the front server and decodes a 200 body
// into out. It returns the status code; err is set only when no status
// came back or a 200 body did not decode.
func (st *stack) call(method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, st.url+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// infer asks the front server for the given nodes.
func (st *stack) infer(nodes []int) (*serve.InferResponse, int, error) {
	var out serve.InferResponse
	code, err := st.call(http.MethodPost, "/infer", serve.InferRequest{Nodes: nodes}, &out)
	if err == nil && code == http.StatusOK && (len(out.Preds) != len(nodes) || len(out.Depths) != len(nodes)) {
		err = fmt.Errorf("/infer answered %d predictions and %d depths for %d nodes", len(out.Preds), len(out.Depths), len(nodes))
	}
	return &out, code, err
}
