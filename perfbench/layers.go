package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/cmatrix"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/serve"
	"repro/internal/sphere"
)

// isolatedFrames caps how many of the workload's frames the isolated
// layer calls use; they are the first frames of the set, in order.
const isolatedFrames = 4096

// timePerUnit calls fn over units [0, n) in chunks of chunk units until
// slice has passed (at least one chunk), cycling through the units, and
// returns the median over chunks of the chunk's time divided by the
// frames it covered (weight(i) frames for unit i), in µs.
func timePerUnit(n, chunk int, slice time.Duration, weight func(i int) int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var per []float64
	start := time.Now()
	for lo := 0; len(per) == 0 || time.Since(start) < slice; {
		hi := min(lo+chunk, n)
		frames := 0
		for i := lo; i < hi; i++ {
			frames += weight(i)
		}
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		per = append(per, micros(time.Since(t0))/float64(frames))
		lo = hi % n
	}
	return median(per)
}

func one(int) int { return 1 }

// isolated measures each layer's public functions on the workload's own
// frames, single-threaded, after the timed phases. bodies are answers the
// front end sent during the traced phase and batches the batches its
// workers decoded.
func isolated(w workload, in *inputs, bodies [][]byte, batches [][]core.BatchInput, slice time.Duration, m metricSet) error {
	frames := in.frames[:min(len(in.frames), isolatedFrames)]
	reqs := in.reqs
	for n, i := 0, 0; i < len(reqs); i++ {
		if n += len(reqs[i].frames); n >= len(frames) {
			reqs = reqs[:i+1]
			break
		}
	}
	reqFrames := func(i int) int { return len(reqs[i].frames) }

	// serve.http: what the handler does to a request body before Submit,
	// and to the answer after it.
	var decodeErr error
	decode := func(i int) {
		dec := json.NewDecoder(bytes.NewReader(reqs[i].body))
		dec.DisallowUnknownFields()
		var req serve.DecodeRequest
		if err := dec.Decode(&req); err != nil {
			decodeErr = err
			return
		}
		if len(req.Frames) == 0 {
			req.Frames = []serve.DecodeRequest{req}
		}
		for j := range req.Frames {
			if _, err := req.Frames[j].ToBatchInput(); err != nil {
				decodeErr = err
			}
		}
	}
	m.set("serve.http.decode_us", timePerUnit(len(reqs), 8, slice, reqFrames, decode), "us")
	if decodeErr != nil {
		return decodeErr
	}
	var reqBytes, nFrames int
	for i := range in.reqs {
		reqBytes += len(in.reqs[i].body)
		nFrames += len(in.reqs[i].frames)
	}
	m.set("serve.http.req_bytes_per_frame", float64(reqBytes)/float64(nFrames), "bytes")

	answers, answerFrames, err := parseAnswers(w, bodies)
	if err != nil {
		return err
	}
	encode := func(i int) { _ = json.NewEncoder(io.Discard).Encode(answers[i]) } // io.Discard never fails.
	m.set("serve.http.encode_us", timePerUnit(len(answers), 8, slice, func(i int) int { return answerFrames[i] }, encode), "us")
	// Decode and encode allocations, each per frame of its own sample.
	a0, decFrames := mallocs(), 0
	for i := 0; i < min(len(reqs), 64); i++ {
		decode(i)
		decFrames += reqFrames(i)
	}
	a1, encFrames := mallocs(), 0
	for i := 0; i < min(len(answers), 64); i++ {
		encode(i)
		encFrames += answerFrames[i]
	}
	a2 := mallocs()
	m.set("serve.http.allocs_per_frame", float64(a1-a0)/float64(decFrames)+float64(a2-a1)/float64(max(encFrames, 1)), "count")

	m.set("bench.client_us", timePerUnit(len(bodies), 8, slice, func(i int) int { return answerFrames[i] }, func(i int) {
		if w.scenario != "" {
			var b wireBatch
			_ = json.Unmarshal(bodies[i], &b) // parsed once already; cannot fail.
		} else {
			var r wireResult
			_ = json.Unmarshal(bodies[i], &r)
		}
	}), "us")

	m.set("cluster.forward_encode_us", timePerUnit(len(frames), 64, slice, one, func(i int) {
		f := wireFrame(frames[i].h, frames[i].y, frames[i].nv)
		_, _ = json.Marshal(&f) // plain floats and slices always marshal.
	}), "us")

	// core: the batches the scheduler formed, replayed on a fresh backend
	// built like the server's.
	acc, err := newAccelerator(w)
	if err != nil {
		return err
	}
	if len(batches) == 0 {
		return errors.New("the traced phase recorded no batches")
	}
	var replayErr error
	replay := func(i int) {
		if _, err := acc.DecodeBatch(batches[i]); err != nil {
			replayErr = err
		}
	}
	m.set("core.decode_batch_isolated_us", timePerUnit(len(batches), 8, slice, func(i int) int { return len(batches[i]) }, replay), "us")
	a0, bf := mallocs(), 0
	for i := 0; i < min(len(batches), 16); i++ {
		replay(i)
		bf += len(batches[i])
	}
	m.set("core.allocs_per_frame", float64(mallocs()-a0)/float64(bf), "count")
	if replayErr != nil {
		return replayErr
	}

	// sphere: the search alone on preprocessed frames, with the decoder
	// configuration newAccelerator gives the servers (scalar evaluation,
	// default strategy, norm and node ceiling).
	sd, err := sphere.New(sphere.Config{Const: in.cons})
	if err != nil {
		return err
	}
	pres := make([]*sphere.Preprocessed, len(frames))
	for i := range frames {
		if pres[i], err = sphere.Preprocess(frames[i].h); err != nil {
			return err
		}
	}
	var generated, pruned, leaves, searched int64
	var searchErr error
	m.set("sphere.search_us", timePerUnit(len(frames), 64, slice, one, func(i int) {
		res, err := sd.DecodePre(pres[i], frames[i].y, frames[i].nv, 0)
		if err != nil {
			searchErr = err
			return
		}
		generated += res.Counters.ChildrenGenerated
		pruned += res.Counters.ChildrenPruned
		leaves += res.Counters.LeavesReached
		searched++
	}), "us")
	if searchErr != nil {
		return searchErr
	}
	m.set("sphere.prune_ratio", float64(pruned)/float64(max(generated, 1)), "ratio")
	m.set("sphere.leaves_per_frame", float64(leaves)/float64(max(searched, 1)), "count")
	m.set("sphere.preprocess_us", timePerUnit(len(frames), 64, slice, one, func(i int) {
		_, _ = sphere.Preprocess(frames[i].h) // factored above without error.
	}), "us")

	// The cache is keyed by content, and every request parses fresh
	// matrices, so hits are looked up with an equal copy of the channel.
	var distinct, copies []*cmatrix.Matrix
	seen := make(map[uint64]bool)
	for i := range frames {
		if fp := frames[i].h.Fingerprint(); !seen[fp] {
			seen[fp] = true
			distinct = append(distinct, frames[i].h)
			c := cmatrix.NewMatrix(frames[i].h.Rows, frames[i].h.Cols)
			copy(c.Data, frames[i].h.Data)
			copies = append(copies, c)
		}
	}
	const cacheChunk = 32 // within sphere.DefaultCacheEntries, so no evictions
	var hitPer, missPer []float64
	start := time.Now()
	for lo := 0; len(hitPer) == 0 || time.Since(start) < slice; lo = (lo + cacheChunk) % len(distinct) {
		hi := min(lo+cacheChunk, len(distinct))
		cache := sphere.NewPreprocessCache(0)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			_, _ = cache.Get(distinct[i]) // factored above without error.
		}
		t1 := time.Now()
		for i := lo; i < hi; i++ {
			_, _ = cache.Get(copies[i])
		}
		missPer = append(missPer, micros(t1.Sub(t0))/float64(hi-lo))
		hitPer = append(hitPer, micros(time.Since(t1))/float64(hi-lo))
	}
	m.set("sphere.cache_miss_us", median(missPer), "us")
	m.set("sphere.cache_hit_us", median(hitPer), "us")

	m.set("cmatrix.fingerprint_us", timePerUnit(len(frames), 256, slice, one, func(i int) { frames[i].h.Fingerprint() }), "us")
	m.set("cmatrix.checksum_us", timePerUnit(len(frames), 256, slice, one, func(i int) {
		pres[i].F.Q.PayloadChecksum()
		pres[i].F.R.PayloadChecksum()
	}), "us")

	syms := make([]cmatrix.Vector, len(frames))
	for i := range frames {
		syms[i] = make(cmatrix.Vector, len(frames[i].ref))
		for j, idx := range frames[i].ref {
			syms[i][j] = in.cons.Symbol(idx)
		}
	}
	scratch := make(cmatrix.Vector, w.rx)
	var auditErr error
	m.set("integrity.audit_us", timePerUnit(len(frames), 256, slice, one, func(i int) {
		if err := integrity.ReEncode(frames[i].h, frames[i].y, syms[i], scratch).CheckExactL2(frames[i].refRes); err != nil {
			auditErr = err
		}
	}), "us")
	if auditErr != nil {
		return auditErr
	}
	return modeled(w, frames, m)
}

// fixedBatches cuts frames into consecutive batches of size n.
func fixedBatches(frames []frame, n int) [][]core.BatchInput {
	var out [][]core.BatchInput
	for lo := 0; lo < len(frames); lo += n {
		b := make([]core.BatchInput, 0, n)
		for _, f := range frames[lo:min(lo+n, len(frames))] {
			b = append(b, core.BatchInput{H: f.h, Y: f.y, NoiseVar: f.nv})
		}
		out = append(out, b)
	}
	return out
}

// modeledFrames bounds the deterministic FPGA-model pass, which decodes
// every frame it covers.
const modeledFrames = 512

// modeled reports the FPGA pipeline model's time per frame for the
// workload's first frames in fixed batches of the server's MaxBatch, on a
// fresh backend, so it depends only on the seed and the traversal.
func modeled(w workload, frames []frame, m metricSet) error {
	acc, err := newAccelerator(w)
	if err != nil {
		return err
	}
	frames = frames[:min(len(frames), modeledFrames)]
	var sim time.Duration
	for _, b := range fixedBatches(frames, 16) {
		rep, err := acc.DecodeBatch(b)
		if err != nil {
			return err
		}
		sim += rep.SimulatedTime
	}
	m.set("fpga.modeled_us_per_frame", micros(sim)/float64(len(frames)), "us")
	return nil
}

// parseAnswers decodes the kept answer bodies into the front end's own
// response types, ready to be encoded again, with their frame counts.
func parseAnswers(w workload, bodies [][]byte) ([]any, []int, error) {
	out := make([]any, len(bodies))
	n := make([]int, len(bodies))
	for i, b := range bodies {
		var err error
		switch {
		case w.proxied:
			var v cluster.BatchDecodeResponse
			err = json.Unmarshal(b, &v)
			out[i], n[i] = &v, len(v.Results)
		case w.scenario != "":
			var v serve.BatchDecodeResponse
			err = json.Unmarshal(b, &v)
			out[i], n[i] = &v, len(v.Results)
		default:
			var v serve.DecodeResponse
			err = json.Unmarshal(b, &v)
			out[i], n[i] = &v, 1
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return out, n, nil
}
