package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/serve"
	"repro/internal/sphere"
)

// node is one HTTP front end listening on loopback.
type node struct {
	url   string
	srv   *http.Server
	done  chan struct{}
	sched *serve.Scheduler
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		if err := n.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "perfbench: serve %s: %v\n", n.url, err)
		}
	}()
	return n, nil
}

// close stops the listener and its connections, waits for Serve to
// return, then drains the scheduler.
func (n *node) close() {
	_ = n.srv.Close() // Close reports only listener errors; the listener is ours.
	<-n.done
	if n.sched != nil {
		n.sched.Close()
	}
}

// stack is the serving stack of one workload: one sdserver, or an sdproxy
// over two sdserver shards.
type stack struct {
	shards []*node
	proxy  *cluster.Proxy
	proxyN *node
	front  string
}

// newAccelerator builds a decode backend the way cmd/sdserver does with
// its default flags (-variant optimized -scalar-eval, default strategy and
// norm, no -verify-gemm).
func newAccelerator(w workload) (*core.Accelerator, error) {
	strat, err := sphere.ParseStrategy("")
	if err != nil {
		return nil, err
	}
	norm, err := sphere.ParseNorm("")
	if err != nil {
		return nil, err
	}
	return core.New(fpga.Optimized, w.mod, w.tx, w.rx, core.Options{ScalarEval: true, Strategy: strat, Norm: norm})
}

// newShard builds serve.New + serve.NewHandler as cmd/sdserver does with
// its default flags. A non-nil tracer wraps the worker backends and the
// handler.
func newShard(w workload, tr *tracer) (*node, error) {
	policy, err := serve.ParseOverloadPolicy("reject")
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		MaxBatch: 16,
		MaxWait:  time.Millisecond,
		Workers:  2,
		QueueCap: 256,
		Policy:   policy,
	}
	if tr != nil {
		cfg.WrapWorker = func(_ int, be serve.Backend) serve.Backend { return &tracedBackend{Backend: be, t: tr} }
	}
	s, err := serve.New(cfg, func() (serve.Backend, error) { return newAccelerator(w) })
	if err != nil {
		return nil, err
	}
	strat, _ := sphere.ParseStrategy("") // newAccelerator already parsed both.
	norm, _ := sphere.ParseNorm("")
	var h http.Handler = serve.NewHandler(s, w.tx, w.rx, w.mod.String(), serve.WithDecodeInfo(strat.String(), norm.String()))
	if tr != nil {
		h = tr.handler(spanServe, h)
	}
	n, err := listen(h)
	if err != nil {
		s.Close()
		return nil, err
	}
	n.sched = s
	return n, nil
}

// newProxy builds cluster.New + cluster.NewHandler as cmd/sdproxy does with
// its default flags. A non-nil tracer wraps the shard transport (with the
// same pooled transport cluster.New would build) and the handler.
func newProxy(w workload, shards []string, tr *tracer) (*cluster.Proxy, *node, error) {
	routing, err := cluster.ParseRoutingMode("affinity")
	if err != nil {
		return nil, nil, err
	}
	cfg := cluster.Config{
		Shards:         shards,
		Replicas:       2,
		Routing:        routing,
		AttemptTimeout: time.Second,
		ProbeInterval:  250 * time.Millisecond,
		DarkAfter:      2,
		Fallback:       cluster.FallbackSpec{Tx: w.tx, Rx: w.rx, Modulation: w.mod.String()},
	}
	if tr != nil {
		base := http.DefaultTransport.(*http.Transport).Clone()
		base.MaxIdleConnsPerHost = 64
		cfg.Transport = &hopTransport{t: tr, next: base}
	}
	p, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var h http.Handler = cluster.NewHandler(p)
	if tr != nil {
		h = tr.handler(spanProxy, h)
	}
	n, err := listen(h)
	if err != nil {
		p.Close()
		return nil, nil, err
	}
	return p, n, nil
}

// buildStack starts the workload's stack: one shard, or a proxy over two.
func buildStack(w workload, tr *tracer) (*stack, error) {
	st := &stack{}
	nShards := 1
	if w.proxied {
		nShards = 2
	}
	for i := 0; i < nShards; i++ {
		n, err := newShard(w, tr)
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, n)
	}
	st.front = st.shards[0].url
	if w.proxied {
		if err := st.addProxy(w, tr); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// addProxy puts a proxy in front of the stack's shards and makes it the
// front end.
func (st *stack) addProxy(w workload, tr *tracer) error {
	urls := make([]string, len(st.shards))
	for i, n := range st.shards {
		urls[i] = n.url
	}
	p, n, err := newProxy(w, urls, tr)
	if err != nil {
		return err
	}
	st.proxy, st.proxyN, st.front = p, n, n.url
	return nil
}

// removeProxy stops the proxy and points the front back at the first shard.
func (st *stack) removeProxy() {
	if st.proxyN != nil {
		st.proxyN.close()
		st.proxy.Close()
	}
	st.proxy, st.proxyN = nil, nil
	if len(st.shards) > 0 {
		st.front = st.shards[0].url
	}
}

func (st *stack) close() {
	st.removeProxy()
	for _, n := range st.shards {
		n.close()
	}
}

// schedCounts is the part of the shards' scheduler stats the per-layer
// metrics read, summed over shards.
type schedCounts struct {
	Completed, Shed, Batches, BatchedFrames, Retries, QRCacheHits, QRCacheMisses uint64
}

func (a schedCounts) sub(b schedCounts) schedCounts {
	return schedCounts{
		Completed:     a.Completed - b.Completed,
		Shed:          a.Shed - b.Shed,
		Batches:       a.Batches - b.Batches,
		BatchedFrames: a.BatchedFrames - b.BatchedFrames,
		Retries:       a.Retries - b.Retries,
		QRCacheHits:   a.QRCacheHits - b.QRCacheHits,
		QRCacheMisses: a.QRCacheMisses - b.QRCacheMisses,
	}
}

func (st *stack) stats() schedCounts {
	var sum schedCounts
	for _, n := range st.shards {
		s := n.sched.Stats()
		sum.Completed += s.Completed
		sum.Shed += s.Shed
		sum.Batches += s.Batches
		sum.BatchedFrames += s.BatchedFrames
		sum.Retries += s.Retries
		sum.QRCacheHits += s.QRCacheHits
		sum.QRCacheMisses += s.QRCacheMisses
	}
	return sum
}

// shardCount is one shard's slice of the proxy's ledger.
type shardCount struct {
	url                   string
	requests, ok, primary uint64
}

func (a shardCount) sub(b shardCount) shardCount {
	return shardCount{url: a.url, requests: a.requests - b.requests, ok: a.ok - b.ok, primary: a.primary - b.primary}
}

// shardLedger reads the proxy's per-shard counters, in URL order; nil
// without a proxy.
func (st *stack) shardLedger() []shardCount {
	if st.proxy == nil {
		return nil
	}
	var out []shardCount
	for _, sh := range st.proxy.Stats().Shards {
		out = append(out, shardCount{url: sh.URL, requests: sh.Requests, ok: sh.OK, primary: sh.ServedAsPrimary})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}
