// Command perfbench is the repository benchmark. It builds the shipped
// serving stack inside its own process — serve.NewHandler over serve.New
// as cmd/sdserver configures it, and for one workload cluster.NewHandler
// over cluster.New as cmd/sdproxy configures it — drives it over loopback
// HTTP with seeded traffic from at most nproc connections, checks every
// answer against an independent reference decoder, and prints a metadata
// line followed by the result line: the end-to-end metrics with --trace 0,
// the per-layer ledger with --trace 1.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload ofdm-static --seed 1 --seconds 55 --trace 0
//
// Each run generates its inputs from --seed (the same seed gives
// byte-identical request bodies, whose hash the run prints) and computes
// the reference answers before any timing starts. Seed 900001 is held out:
// confirm a claimed gain on it after tuning on others.
//
// An end-to-end run sets the stack up several times (construction plus a
// warm-up pass) and reports the median as setup_s, then alternates, in
// rounds spanning the whole budget, a closed loop (the fixed request set
// run in chunks, nproc connections) with an open-loop segment (requests
// released at the workload's fixed rate, latency timed from each
// request's due time). The timings come from the quarter of the closed
// loops and of the open-loop segments during which the hypervisor took the
// least CPU from the machine. Throughput and CPU per frame are reported in
// reference time (see calibrate.go); the open loop's latencies go to the
// metadata line.
//
// A traced run measures an untraced closed loop, the same closed loop with
// spans recorded at the client, the handlers, the proxy's shard hops and
// the workers' DecodeBatch calls, and then each layer's public functions
// in isolation on the workload's own frames. The spans are written to
// .bench_build/perfbench/ when the run ends.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var stderr io.Writer = os.Stderr

// setupRepeats is how many times an end-to-end run sets the stack up; the
// median is reported.
const setupRepeats = 11

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metricSet) get(name string) float64 { return m[name].Value }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// meta is printed before the result line: what was measured, where, on
// which inputs, and how every phase's requests fared.
type meta struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	HeldOutSeed  uint64             `json:"held_out_seed"`
	Trace        int                `json:"trace"`
	Seconds      int                `json:"seconds"`
	Host         host               `json:"host"`
	BodySHA256   string             `json:"request_bodies_sha256"`
	Requests     int                `json:"requests_in_set"`
	Frames       int                `json:"frames_in_set"`
	RequestBytes int64              `json:"request_bytes_in_set"`
	Phases       map[string]*tally  `json:"phases"`
	Details      map[string]float64 `json:"details"`
	FirstError   string             `json:"first_error,omitempty"`
}

type bench struct {
	w      workload
	in     *inputs
	seed   uint64
	budget time.Duration
	conns  int
	meta   *meta
	m      metricSet
	total  tally
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	in, err := generate(w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: generate:", err)
		return 1
	}
	b := &bench{
		w: w, in: in, seed: *seed,
		budget: time.Duration(*seconds) * time.Second,
		conns:  runtime.NumCPU(),
		m:      metricSet{},
		meta: &meta{
			Workload: w.name, Seed: *seed, HeldOutSeed: heldOutSeed, Trace: *trace, Seconds: *seconds,
			Host: hostInfo(), BodySHA256: in.bodyHash, Requests: len(in.reqs), Frames: len(in.frames),
			RequestBytes: in.bodies, Phases: map[string]*tally{}, Details: map[string]float64{},
		},
	}
	if *trace == 0 {
		err = b.endToEnd()
	} else {
		err = b.traced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: b.total.bad() == 0, Attempted: b.total.Sent, Failed: b.total.bad(), Metrics: b.m}
	b.meta.FirstError = b.total.firstErr
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", k, v.Value)
			res.Metrics[k] = metric{Value: -1, Unit: v.Unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stderr, "%-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	metaLine, err := json.Marshal(map[string]*meta{"perfbench": b.meta})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(metaLine))
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness violation:", b.total.firstErr)
		return 1
	}
	return 0
}

// phase records a phase's request tally.
func (b *bench) phase(name string, t tally) {
	p := b.meta.Phases[name]
	if p == nil {
		p = &tally{}
		b.meta.Phases[name] = p
	}
	p.add(t)
	b.total.add(t)
}

// setUp builds the stack and runs the warm-up pass, which fills the QR
// caches and the connection pools; it returns the time both took.
func (b *bench) setUp(tr *tracer) (*stack, *client, float64, error) {
	t0 := time.Now()
	st, err := buildStack(b.w, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(st.front, b.in, b.conns, tr)
	var warm recorder
	c.run(b.in.reqs[:min(b.w.warmup, len(b.in.reqs))], &warm)
	d := time.Since(t0).Seconds()
	b.phase("warmup", warm.t)
	return st, c, d, nil
}

// segmentRequests is the number of requests in one open-loop segment:
// short enough that rounds resolve bursts of host steal.
const segmentRequests = 250

// latency returns the p50 and p99 latency (ms) over every request of segs
// and the generator's mean lateness (ms).
func latency(segs []openResult) (p50, p99, late float64) {
	var lat, lt []float64
	for _, sg := range segs {
		for _, l := range sg.latency {
			lat = append(lat, l*1e3)
		}
		lt = append(lt, sg.late...)
	}
	return quantile(lat, 0.50), quantile(lat, 0.99), mean(lt) * 1e3
}

// stolen is one measured slice of an end-to-end run — a round's closed
// loop or its open-loop segment — with the host's CPU steal share while it
// ran.
type stolen[T any] struct {
	v     T
	steal float64
}

// quietest returns the least-stolen quarter of xs (rounded up). Steal is
// the time the hypervisor ran something else on the machine's vCPUs; it is
// measured outside the program, so ranking by it drops the slices the host
// disturbed most without looking at how fast the program ran. Among equal
// shares every fourth slice comes first, so a quiet host yields slices
// spread over the whole run rather than its start.
func quietest[T any](xs []stolen[T]) []stolen[T] {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if xs[i].steal != xs[j].steal {
			return xs[i].steal < xs[j].steal
		}
		return i%4 < j%4
	})
	q := make([]stolen[T], (len(xs)+3)/4)
	for k := range q {
		q[k] = xs[idx[k]]
	}
	return q
}

// timings sets the throughput and CPU per frame of the closed-loop slices
// and the latency metrics of the open-loop ones.
func timings(m metricSet, closed []stolen[[]chunkStat], open []stolen[openResult]) {
	var chunks []chunkStat
	for _, c := range closed {
		chunks = append(chunks, c.v...)
	}
	var segs []openResult
	for _, o := range open {
		segs = append(segs, o.v)
	}
	fps, cpu := chunkRates(chunks)
	m.set("throughput_fps", fps, "frames/s")
	m.set("cpu_us_per_frame", cpu, "us")
	p50, p99, late := latency(segs)
	m.set("p50_ms", p50, "ms")
	m.set("p99_ms", p99, "ms")
	m.set("gen_late_ms", late, "ms")
}

func meanSteal[T any](xs []stolen[T]) float64 {
	var s float64
	for _, x := range xs {
		s += x.steal
	}
	return s / float64(max(len(xs), 1))
}

// probeWindow is the number of rounds whose median probe puts a round's
// chunks into reference time.
const probeWindow = 9

// inReference returns chunks in reference time: their CPU times divided
// by slow, the host's slowdown against the reference host, and their wall
// times cut to the share steal left the machine's vCPUs running, then
// divided by slow. Process CPU time already leaves steal out.
func inReference(chunks []chunkStat, slow, steal float64) []chunkStat {
	out := make([]chunkStat, len(chunks))
	for i, c := range chunks {
		out[i] = chunkStat{
			wall:   time.Duration(float64(c.wall) * (1 - steal) / slow),
			cpu:    time.Duration(float64(c.cpu) / slow),
			frames: c.frames,
		}
	}
	return out
}

// closedShare is the part of an end-to-end run's budget the closed loop
// gets; the open loop gets the rest.
func closedShare(budget time.Duration) time.Duration { return budget / 2 }

// chunkRates returns the median throughput (frames/s) and CPU per frame
// (µs) over closed-loop chunks.
func chunkRates(chunks []chunkStat) (fps, cpuUS float64) {
	rates := make([]float64, len(chunks))
	cpus := make([]float64, len(chunks))
	for i, c := range chunks {
		rates[i] = float64(c.frames) / c.wall.Seconds()
		cpus[i] = micros(c.cpu) / float64(c.frames)
	}
	return median(rates), median(cpus)
}

func (b *bench) endToEnd() error {
	var (
		st     *stack
		c      *client
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			c.close()
			st.close()
		}
		var d float64
		var err error
		if st, c, d, err = b.setUp(nil); err != nil {
			return err
		}
		setups = append(setups, d)
	}
	defer st.close()
	defer c.close()
	b.m.set("setup_s", median(setups), "s")

	// The closed and open loops alternate in rounds that span the whole
	// budget, so host interference that comes and goes over seconds lands
	// on both alike. The timings come from the least-stolen quarter of
	// each; the same timings over every slice go to the metadata.
	offer := max(int((b.budget-closedShare(b.budget)).Seconds()*b.w.openRPS), 1)
	n := max(offer/segmentRequests, 1)
	var (
		first, rest, open recorder
		closed            []stolen[[]chunkStat]
		segs              []stolen[openResult]
		sent, offered     int
		probed            []float64
	)
	s0, t0 := hostSteal()
	for r := 0; r < n; r++ {
		chunks := c.closedLoop(b.in.reqs, b.w.chunk, closedShare(b.budget)/time.Duration(n), &sent, &first, &rest)
		s1, t1 := hostSteal()
		p, err := probeHost(0)
		if err != nil {
			return fmt.Errorf("host probe: %w", err)
		}
		probed = append(probed, float64(p))
		seg := c.openLoop(b.in.reqs, b.w.openRPS, offer/n, offered, &open)
		offered += len(seg.latency)
		s2, t2 := hostSteal()
		closed = append(closed, stolen[[]chunkStat]{chunks, stealShare(s0, t0, s1, t1)})
		segs = append(segs, stolen[openResult]{seg, stealShare(s1, t1, s2, t2)})
		s0, t0 = s2, t2
	}
	b.phase("closed", first.t)
	b.phase("closed", rest.t)
	b.phase("open", open.t)
	// The first round's closed loop makes the set's first pass, with the
	// QR caches still cold for all but the warm-up's frames; it is checked
	// but not timed.
	quietClosed, quietOpen := quietest(closed[min(1, len(closed)-1):]), quietest(segs)
	raw := metricSet{}
	timings(raw, quietClosed, quietOpen)
	for k, v := range raw {
		b.meta.Details["raw."+k] = v.Value
	}
	// Each round's chunks go into reference time by the median probe of
	// the rounds around it, which follows the host from one speed to
	// another within a run without taking one probe's noise.
	ref := make([]stolen[[]chunkStat], len(closed))
	for r, cl := range closed {
		near := append([]float64(nil), probed[max(0, r-probeWindow/2):min(len(probed), r+probeWindow/2+1)]...)
		ref[r] = stolen[[]chunkStat]{inReference(cl.v, median(near)/float64(refProbe), cl.steal), cl.steal}
	}
	refm := metricSet{}
	timings(refm, quietest(ref[min(1, len(ref)-1):]), quietOpen)
	b.m.set("throughput_fps", refm.get("throughput_fps"), "frames/ref-s")
	b.m.set("cpu_us_per_frame", refm.get("cpu_us_per_frame"), "ref-us")
	b.meta.Details["host_probe_us"] = median(probed) / 1e3
	b.meta.Details["host_slowdown"] = median(probed) / float64(refProbe)
	all := metricSet{}
	timings(all, closed, segs)
	for k, v := range all {
		b.meta.Details["all_slices."+k] = v.Value
	}
	b.meta.Details["rounds"] = float64(n)
	b.meta.Details["host_steal_frac.closed"] = meanSteal(closed)
	b.meta.Details["host_steal_frac.closed_kept"] = meanSteal(quietClosed)
	b.meta.Details["host_steal_frac.open"] = meanSteal(segs)
	b.meta.Details["host_steal_frac.open_kept"] = meanSteal(quietOpen)
	var lat, lateAll []float64
	for _, sg := range segs {
		lat = append(lat, sg.v.latency...)
		lateAll = append(lateAll, sg.v.late...)
	}
	b.meta.Details["open_loop_rate_rps"] = b.w.openRPS
	b.meta.Details["open_loop_requests"] = float64(len(lat))
	b.meta.Details["p99_whole_phase_ms"] = quantile(lat, 0.99) * 1e3
	b.meta.Details["gen_late_p50_ms"] = quantile(lateAll, 0.5) * 1e3
	b.meta.Details["gen_late_max_ms"] = quantile(lateAll, 1) * 1e3

	frames := first.t.frames + rest.t.frames + open.t.frames
	b.m.set("exact_frac", float64(first.t.exact+rest.t.exact+open.t.exact)/float64(max(frames, 1)), "ratio")
	b.meta.Details["ber"] = ber(first.t)
	b.m.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

func (b *bench) traced() error {
	quarter := b.budget / 4
	slice := b.budget / 2 / 12

	// Untraced reference: the closed loop as the end-to-end run measures it.
	st, c, _, err := b.setUp(nil)
	if err != nil {
		return err
	}
	var u0, u1 recorder
	rt0, cpu0 := readRuntime(), cpuTime()
	sent := 0
	chunks := c.closedLoop(b.in.reqs, b.w.chunk, quarter, &sent, &u0, &u1)
	rt1, cpu1 := readRuntime(), cpuTime()
	c.close()
	st.close()
	b.phase("closed-untraced", u0.t)
	b.phase("closed-untraced", u1.t)
	ufps, ucpu := chunkRates(chunks)
	b.m.set("trace.untraced.throughput_fps", ufps, "frames/s")
	b.m.set("trace.untraced.cpu_us_per_frame", ucpu, "us")
	uframes := float64(u0.t.frames + u1.t.frames)
	b.m.set("go.alloc_bytes_per_frame", (rt1.allocBytes-rt0.allocBytes)/uframes, "bytes")
	b.m.set("go.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/(cpu1-cpu0).Seconds(), "ratio")

	// Traced: the same closed loop with spans at every boundary.
	tr := newTracer()
	if st, c, _, err = b.setUp(tr); err != nil {
		return err
	}
	defer st.close()
	tr.take()
	s0, p0 := st.stats(), st.shardLedger()
	t0, t1 := recorder{keep: true}, recorder{keep: true}
	sent = 0
	chunks = c.closedLoop(b.in.reqs, b.w.chunk, quarter, &sent, &t0, &t1)
	s1, p1 := st.stats(), st.shardLedger()
	c.close()
	spans, batches := tr.take()
	b.phase("closed-traced", t0.t)
	b.phase("closed-traced", t1.t)
	tfps, tcpu := chunkRates(chunks)
	b.m.set("trace.traced.throughput_fps", tfps, "frames/s")
	b.m.set("trace.traced.cpu_us_per_frame", tcpu, "us")
	answers := append(t0.answers, t1.answers...)
	bodies := append(t0.bodies, t1.bodies...)
	if len(answers) == 0 || len(bodies) == 0 {
		return errors.New("traced phase kept no answers")
	}
	b.inSitu(spans, answers, s0, s1)

	// Cluster layer: in situ behind a proxied workload's proxy; otherwise
	// an isolated single-connection pass through a proxy put in front of
	// the workload's server.
	if !b.w.proxied {
		if err := st.addProxy(b.w, tr); err != nil {
			return err
		}
		p0 = st.shardLedger()
		pc := newClient(st.front, b.in, 1, tr)
		prec := recorder{keep: true}
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < slice; i = (i + 1) % len(b.in.reqs) {
			pc.send(&b.in.reqs[i], &prec)
		}
		pc.close()
		p1 = st.shardLedger()
		st.removeProxy()
		b.phase("cluster-isolated", prec.t)
		var pspans []span
		pspans, _ = tr.take()
		b.cluster(pspans, prec.answers, p0, p1)
		spans = append(spans, pspans...)
	} else {
		b.cluster(spans, answers, p0, p1)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "perfbench"), 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed)), spans); err != nil {
		return err
	}

	if err := isolated(b.w, b.in, bodies, batches, slice, b.m); err != nil {
		return fmt.Errorf("isolated layers: %w", err)
	}
	b.ledger(ucpu)
	b.m.set("quality.ber", ber(u0.t), "ratio")
	b.m.set("quality.error_frac", float64(b.total.bad())/float64(max(b.total.Sent, 1)), "ratio")
	return nil
}

// ber is the bit-error rate of the served answers in t. Taken over the
// first closed-loop pass, which answers every frame of the set once, it
// depends only on the seed and the answers.
func ber(t tally) float64 { return float64(t.bitErrs) / float64(max(t.bits, 1)) }

// inSitu derives the layer metrics measured inside the traced closed loop.
func (b *bench) inSitu(spans []span, answers []wireResult, s0, s1 schedCounts) {
	var handler []float64
	var backend time.Duration
	backendFrames := 0
	for _, s := range spans {
		switch s.Name {
		case spanServe:
			handler = append(handler, micros(s.dur()))
		case spanBackend:
			backend += s.dur()
			backendFrames += s.Frames
		}
	}
	b.m.set("serve.http.handler_us", median(handler), "us")
	b.m.set("core.decode_batch_us", micros(backend)/float64(max(backendFrames, 1)), "us")

	waits := make([]float64, len(answers))
	nodes := make([]float64, len(answers))
	var service, batchService float64
	for i, a := range answers {
		waits[i] = float64(a.QueueWaitNS) / 1e3
		nodes[i] = float64(a.NodesExplored)
		service += float64(a.ServiceNS) / 1e3
		batchService += float64(a.ServiceNS) / 1e3 / float64(max(a.BatchSize, 1))
	}
	n := float64(len(answers))
	b.m.set("serve.queue_wait_us.p50", quantile(waits, 0.5), "us")
	b.m.set("serve.queue_wait_us.p99", quantile(waits, 0.99), "us")
	b.m.set("serve.service_us", service/n, "us")
	// Every frame of a batch reports the batch's service time, so summing
	// service/batch_size over frames sums the batches once each.
	b.m.set("serve.self_us", (batchService-micros(backend))/n, "us")
	b.m.set("sphere.nodes_per_frame.mean", mean(nodes), "count")
	b.m.set("sphere.nodes_per_frame.p99", quantile(nodes, 0.99), "count")

	d := s1.sub(s0)
	b.m.set("serve.batch_size_mean", float64(d.BatchedFrames)/float64(max(d.Batches, 1)), "frames")
	b.m.set("serve.shed_frac", float64(d.Shed)/float64(max(d.Completed+d.Shed, 1)), "ratio")
	b.m.set("serve.retries", float64(d.Retries), "count")
	b.m.set("sphere.cache_hit_ratio", float64(d.QRCacheHits)/float64(max(d.QRCacheHits+d.QRCacheMisses, 1)), "ratio")
}

// cluster derives the proxy-layer metrics from hop and proxy-handler spans,
// the proxy's answers and its per-shard ledger.
func (b *bench) cluster(spans []span, answers []wireResult, p0, p1 []shardCount) {
	var hops []float64
	for _, s := range spans {
		if s.Name == spanHop {
			hops = append(hops, micros(s.dur()))
		}
	}
	b.m.set("cluster.hop_us", mean(hops), "us")
	var self time.Duration
	for _, d := range selfTimes(spans, spanProxy) {
		self += d
	}
	var attempts float64
	for _, a := range answers {
		attempts += float64(a.Attempts)
	}
	n := float64(max(len(answers), 1))
	b.m.set("cluster.proxy_self_us", micros(self)/n, "us")
	b.m.set("cluster.attempts_per_frame", attempts/n, "count")
	var primary, ok, most, sum float64
	for i := range p1 {
		d := p1[i].sub(p0[i])
		primary += float64(d.primary)
		ok += float64(d.ok)
		sum += float64(d.requests)
		most = max(most, float64(d.requests))
	}
	b.m.set("cluster.primary_frac", primary/max(ok, 1), "ratio")
	b.m.set("cluster.shard_skew", most/max(sum/float64(max(len(p1), 1)), 1), "ratio")
}

// ledger compares the summed per-frame self times of the isolated layer
// calls with the untraced closed loop's CPU per frame. A proxied workload
// pays JSON decode, encode and answer parsing twice (proxy and shard) plus
// the proxy's own fingerprint and forward encode. What is left is net/http,
// loopback TCP, goroutine scheduling, the batcher, and any layer the ledger
// does not name.
func (b *bench) ledger(cpuPerFrame float64) {
	k := 1.0
	extra := 0.0
	if b.w.proxied {
		k = 2
		extra = b.m.get("cmatrix.fingerprint_us") + b.m.get("cluster.forward_encode_us")
	}
	parts := map[string]float64{
		"bench.client_us":               k * b.m.get("bench.client_us"),
		"serve.http.decode_us":          k * b.m.get("serve.http.decode_us"),
		"serve.http.encode_us":          k * b.m.get("serve.http.encode_us"),
		"core.decode_batch_isolated_us": b.m.get("core.decode_batch_isolated_us"),
		"integrity.audit_us":            b.m.get("integrity.audit_us"),
		"cluster.routing_us":            extra,
	}
	explained := 0.0
	for k, v := range parts {
		explained += v
		b.meta.Details["ledger."+k] = v
	}
	b.meta.Details["ledger.cpu_us_per_frame"] = cpuPerFrame
	b.m.set("ledger.unexplained_frac", 1-explained/cpuPerFrame, "ratio")
}
