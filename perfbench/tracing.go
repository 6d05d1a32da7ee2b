package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Span names, one per boundary the benchmark wraps.
const (
	spanClient  = "client.request"
	spanServe   = "serve.handler"
	spanProxy   = "cluster.handler"
	spanHop     = "cluster.hop"
	spanBackend = "core.DecodeBatch"
)

// spanHeader carries the caller's span id to the next handler wrapper. The
// servers ignore it; only the benchmark's own wrappers read it.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// span is one timed interval at a layer boundary. Parent is 0 where the
// benchmark cannot know the cause (a batch serves many requests). Frames
// is the number of frames the span covers.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Frames int    `json:"frames,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It also keeps the
// batches the backends decoded, so the isolated core replay runs on the
// batches the scheduler actually formed.
type tracer struct {
	base    time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	batches [][]core.BatchInput
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans and batches recorded so far and clears them.
func (t *tracer) take() ([]span, [][]core.BatchInput) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, b := t.spans, t.batches
	t.spans, t.batches = make([]span, 0, len(s)), nil
	return s, b
}

// handler wraps a front end's /v1/decode route with a span whose parent is
// the span id the caller sent, and hands its own id to outgoing hops.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/decode" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id := t.id()
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.record(span{ID: id, Parent: parent, Name: name, Start: start, End: t.now()})
	})
}

// hopTransport times the proxy's decode exchanges with its shards, from
// the call until the shard's reply body is closed.
type hopTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return h.next.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	s := span{ID: h.t.id(), Parent: parent, Name: spanHop, Frames: 1}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	s.Start = h.t.now()
	resp, err := h.next.RoundTrip(req)
	if err != nil {
		s.End = h.t.now()
		h.t.record(s)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, t: h.t, s: s}
	return resp, nil
}

type hopBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.record(b.s)
	})
	return err
}

// cacheStatser and sdcStatser mirror the optional facets the scheduler
// probes on each worker backend; a wrapper that dropped them would silently
// change the cache and SDC accounting of the program being measured.
type cacheStatser interface {
	PreprocessCacheStats() (hits, misses int64)
}

type sdcStatser interface {
	PreprocessCacheSDCEvictions() int64
}

// tracedBackend times each worker's DecodeBatch and forwards every
// optional facet of the backend it wraps.
type tracedBackend struct {
	serve.Backend
	t *tracer
}

var (
	_ cacheStatser = (*tracedBackend)(nil)
	_ sdcStatser   = (*tracedBackend)(nil)
)

func (b *tracedBackend) DecodeBatch(inputs []core.BatchInput, opts ...core.BatchOption) (*core.BatchReport, error) {
	s := span{ID: b.t.id(), Name: spanBackend, Frames: len(inputs), Start: b.t.now()}
	rep, err := b.Backend.DecodeBatch(inputs, opts...)
	s.End = b.t.now()
	b.t.mu.Lock()
	b.t.spans = append(b.t.spans, s)
	b.t.batches = append(b.t.batches, inputs)
	b.t.mu.Unlock()
	return rep, err
}

func (b *tracedBackend) PreprocessCacheStats() (hits, misses int64) {
	if cs, ok := b.Backend.(cacheStatser); ok {
		return cs.PreprocessCacheStats()
	}
	return 0, 0
}

func (b *tracedBackend) PreprocessCacheSDCEvictions() int64 {
	if ss, ok := b.Backend.(sdcStatser); ok {
		return ss.PreprocessCacheSDCEvictions()
	}
	return 0
}

// selfTimes returns, per span of the named kind, its duration minus the
// part of it that its children (by parent id) cover.
func selfTimes(spans []span, name string) []time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur()-covered(s, kids[s.ID]))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE >= 0 {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE >= 0 {
		total += curE - curS
	}
	return time.Duration(total)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
