package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// wireResult is the part of a decode answer the checks and the per-layer
// metrics read; serve and cluster answers share these fields.
type wireResult struct {
	SymbolIndices []int  `json:"symbol_indices"`
	Bits          []int  `json:"bits"`
	NodesExplored int64  `json:"nodes_explored"`
	Quality       string `json:"quality"`
	BatchSize     int    `json:"batch_size"`
	QueueWaitNS   int64  `json:"queue_wait_ns"`
	ServiceNS     int64  `json:"service_ns"`
	Attempts      int    `json:"attempts"`
	Error         string `json:"error"`
}

type wireBatch struct {
	Results []wireResult `json:"results"`
}

// tally counts one phase's requests and frames.
type tally struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
	Wrong     int `json:"wrong"`
	frames    int
	exact     int
	bitErrs   int
	bits      int
	firstErr  string
}

func (t *tally) add(o tally) {
	t.Sent += o.Sent
	t.Succeeded += o.Succeeded
	t.Failed += o.Failed
	t.Refused += o.Refused
	t.Wrong += o.Wrong
	t.frames += o.frames
	t.exact += o.exact
	t.bitErrs += o.bitErrs
	t.bits += o.bits
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func (t *tally) bad() int { return t.Failed + t.Refused + t.Wrong }

// recorder collects the phase's tally and, when keep is set, every frame's
// answer for the per-layer metrics plus a sample of raw answer bodies.
type recorder struct {
	mu      sync.Mutex
	t       tally
	keep    bool
	answers []wireResult
	bodies  [][]byte
}

const keptBodies = 256

// client drives the stack's front end over at most conns connections.
type client struct {
	hc    *http.Client
	url   string
	tr    *tracer
	in    *inputs
	conns int
}

func newClient(url string, in *inputs, conns int, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: time.Minute}, url: url, tr: tr, in: in, conns: conns}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// send posts one request and checks its answer into rec.
func (c *client) send(r *request, rec *recorder) {
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/decode", bytes.NewReader(r.body))
	if err != nil {
		rec.merge(tally{Sent: 1, Failed: 1, firstErr: err.Error()}, nil, nil)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var s span
	if c.tr != nil {
		s = span{ID: c.tr.id(), Name: spanClient, Frames: len(r.frames), Start: c.tr.now()}
		req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	}
	resp, err := c.hc.Do(req)
	var body []byte
	status := 0
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	if c.tr != nil {
		s.End = c.tr.now()
		c.tr.record(s)
	}
	t, answers := c.check(r, status, body, err)
	if !rec.keep {
		answers = nil
	}
	rec.merge(t, answers, body)
}

func (rec *recorder) merge(t tally, answers []wireResult, body []byte) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.t.add(t)
	if rec.keep {
		rec.answers = append(rec.answers, answers...)
		if len(rec.bodies) < keptBodies && body != nil && t.Succeeded == 1 {
			rec.bodies = append(rec.bodies, body)
		}
	}
}

// check grades one answer. A request is wrong when any frame's answer is
// wrong: an exact frame whose symbols are not a minimiser of ‖y − H·s‖²,
// a non-exact frame worse than zero forcing, or bits that do not match the
// symbols.
func (c *client) check(r *request, status int, body []byte, err error) (tally, []wireResult) {
	t := tally{Sent: 1}
	switch {
	case err != nil:
		t.Failed, t.firstErr = 1, err.Error()
		return t, nil
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		t.Refused, t.firstErr = 1, fmt.Sprintf("HTTP %d: %.200s", status, body)
		return t, nil
	case status != http.StatusOK:
		t.Failed, t.firstErr = 1, fmt.Sprintf("HTTP %d: %.200s", status, body)
		return t, nil
	}
	var results []wireResult
	if r.envelope {
		var b wireBatch
		err = json.Unmarshal(body, &b)
		results = b.Results
	} else {
		results = make([]wireResult, 1)
		err = json.Unmarshal(body, &results[0])
	}
	if err == nil && len(results) != len(r.frames) {
		err = fmt.Errorf("%d answers for %d frames", len(results), len(r.frames))
	}
	if err != nil {
		t.Failed, t.firstErr = 1, "malformed answer: "+err.Error()
		return t, nil
	}
	wrong := ""
	for i := range results {
		res := &results[i]
		f := &c.in.frames[r.frames[i]]
		if res.Error != "" {
			t.Failed, t.firstErr = 1, "frame error: "+res.Error
			return t, nil
		}
		if msg := c.checkFrame(f, res); msg != "" && wrong == "" {
			wrong = msg
		}
		t.frames++
		if res.Quality == "exact" {
			t.exact++
		}
		for j, b := range f.bits {
			if j < len(res.Bits) && res.Bits[j] != b {
				t.bitErrs++
			}
		}
		t.bits += len(f.bits)
	}
	if wrong != "" {
		t.Wrong, t.firstErr = 1, wrong
		return t, results
	}
	t.Succeeded = 1
	return t, results
}

func (c *client) checkFrame(f *frame, res *wireResult) string {
	cons := c.in.cons
	bps := cons.BitsPerSymbol()
	if len(res.SymbolIndices) != len(f.ref) || len(res.Bits) != len(f.bits) {
		return fmt.Sprintf("answer shape %d symbols / %d bits, want %d / %d",
			len(res.SymbolIndices), len(res.Bits), len(f.ref), len(f.bits))
	}
	same := true
	buf := make([]int, bps)
	for i, idx := range res.SymbolIndices {
		if idx < 0 || idx >= cons.Size() {
			return fmt.Sprintf("symbol index %d out of range", idx)
		}
		same = same && idx == f.ref[i]
		for j, b := range cons.BitsOf(idx, buf) {
			if res.Bits[i*bps+j] != b {
				return "bits do not match the symbols"
			}
		}
	}
	if same {
		return ""
	}
	got := residual(cons, f.h, f.y, res.SymbolIndices)
	if res.Quality == "exact" {
		if got > f.refRes*(1+1e-9)+1e-12 {
			return fmt.Sprintf("exact answer residual %.12g exceeds the reference %.12g", got, f.refRes)
		}
		return ""
	}
	zf, err := zfResidual(cons, f)
	if err != nil {
		return "zero-forcing floor: " + err.Error()
	}
	if got > zf*(1+1e-9)+1e-12 {
		return fmt.Sprintf("%s answer residual %.12g is worse than zero forcing %.12g", res.Quality, got, zf)
	}
	return ""
}

// run sends reqs with c.conns workers pulling from a shared cursor and
// returns when all have been answered.
func (c *client) run(reqs []request, rec *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				c.send(&reqs[i], rec)
			}
		}()
	}
	wg.Wait()
}

// chunkStat is one closed-loop chunk: wall and process CPU time spent
// answering frames frames.
type chunkStat struct {
	wall, cpu time.Duration
	frames    int
}

// closedLoop runs the request set in chunks from *pos, a count of the
// requests sent so far (the set is cycled), each chunk run to completion
// before the next starts, until budget has passed and the set's first pass
// is complete. Chunks of the first pass go to first, later ones to rec.
func (c *client) closedLoop(reqs []request, chunk int, budget time.Duration, pos *int, first, rec *recorder) []chunkStat {
	var stats []chunkStat
	start := time.Now()
	for *pos < len(reqs) || time.Since(start) < budget {
		lo := *pos % len(reqs)
		part := reqs[lo:min(lo+chunk, len(reqs))]
		frames := 0
		for i := range part {
			frames += len(part[i].frames)
		}
		into := rec
		if *pos < len(reqs) {
			into = first
		}
		cpu0, t0 := cpuTime(), time.Now()
		c.run(part, into)
		stats = append(stats, chunkStat{wall: time.Since(t0), cpu: cpuTime() - cpu0, frames: frames})
		*pos += len(part)
	}
	return stats
}

// openResult is one open-loop segment: per request, the latency from its due
// time (+Inf when it failed or was refused) and how late the generator
// released it.
type openResult struct {
	latency []float64
	late    []float64
}

// openLoop offers n requests at a fixed rate per second — an OFDM receiver
// emits one envelope per symbol period — cycling through reqs from index
// from. The generator releases each request at its due time whatever the
// stack is doing; released requests wait for one of c.conns senders, and
// that wait is part of their latency.
func (c *client) openLoop(reqs []request, rate float64, n, from int, rec *recorder) openResult {
	out := openResult{latency: make([]float64, n), late: make([]float64, n)}
	due := make([]time.Time, n)
	released := make(chan int, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local recorder
			for i := range released {
				before := local.t.bad()
				c.send(&reqs[(from+i)%len(reqs)], &local)
				if local.t.bad() > before {
					out.latency[i] = math.Inf(1)
				} else {
					out.latency[i] = time.Since(due[i]).Seconds()
				}
			}
			rec.merge(local.t, nil, nil)
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i := 0; i < n; i++ {
		due[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		out.late[i] = time.Since(due[i]).Seconds()
		released <- i
	}
	close(released)
	wg.Wait()
	return out
}
