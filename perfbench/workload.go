package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/mimo"
	"repro/internal/ofdm"
	"repro/internal/ofdm/scenario"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sphere"
)

// heldOutSeed is the seed kept back for confirming a claimed gain on
// inputs nobody tuned against; see the package documentation.
const heldOutSeed = 900001

// workload is one traffic mix the benchmark drives through the stack.
type workload struct {
	name string
	// tx, rx, mod give the MIMO shape the servers are configured for.
	tx, rx int
	mod    constellation.Modulation
	// proxied puts an in-process cluster proxy over two shards in front.
	proxied bool
	// openRPS is the open-loop offered rate in requests per second, a fixed
	// share of the closed-loop throughput measured at the commit that
	// introduced the benchmark.
	openRPS float64
	// warmup is the number of requests in the set-up warm-up pass, and
	// chunk the number of requests per closed-loop chunk.
	warmup, chunk int

	// OFDM workloads: cells independent grids of the named scenario, each
	// emitting blocks coherence blocks; one request per OFDM symbol.
	scenario      string
	cells, blocks int

	// i.i.d. workloads: frames single-frame requests at snrDB.
	frames int
	snrDB  float64
}

var workloads = []workload{
	// The channel repeats across blocks: QR-cache hits and full batches,
	// so JSON, per-frame serve overhead, the cache-hit path and the audit
	// dominate and the search is bypassed. Offered about half of its
	// ~1300 envelopes/s.
	{
		name: "ofdm-static",
		tx:   4, rx: 4, mod: constellation.QAM4,
		openRPS: 600, warmup: 64, chunk: 64,
		scenario: "static-dense", cells: 16, blocks: 4,
	},
	// The mobile grid straight to one server: fresh estimates every block
	// make the QR cache miss and evict beside its hits, where ofdm-static
	// only hits.
	{
		name: "ofdm-mobile",
		tx:   4, rx: 4, mod: constellation.QAM4,
		openRPS: 600, warmup: 64, chunk: 64,
		scenario: "mobility-aging", cells: 16, blocks: 4,
	},
	// The mobile grid through a proxy over two shards: a second JSON parse,
	// fingerprint routing and per-frame forwarding, with every shard batch
	// formed by the coalescing deadline. Not in BENCHMARK.json: its p99
	// depends on how late the host fires that deadline and, over ten seeds,
	// moved 0.54 (IQR over median) offered half its ~272 envelopes/s and
	// 0.64 offered a third (see README.md). The gated workloads measure the
	// cluster layer through an isolated proxy pass in their traced runs.
	{
		name: "ofdm-mobile-proxied",
		tx:   4, rx: 4, mod: constellation.QAM4, proxied: true,
		openRPS: 90, warmup: 64, chunk: 32,
		scenario: "mobility-aging", cells: 16, blocks: 4,
	},
	// The paper's Fig. 10 shape, one fresh channel per single-frame
	// request: the search kernel and the coalescing deadline dominate. Not
	// in BENCHMARK.json: its heavy search tail makes p99 and peak memory
	// unsteady across seeds (see README.md).
	{
		name: "paper-16qam-8db",
		tx:   10, rx: 10, mod: constellation.QAM16,
		openRPS: 300, warmup: 64, chunk: 100,
		frames: 4000, snrDB: 8,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// frame is one detection problem plus everything the checks need: the
// channel estimate the server sees, the transmitted bits, and the
// reference answer computed before any timing starts.
type frame struct {
	h    *cmatrix.Matrix
	y    cmatrix.Vector
	nv   float64
	bits []int
	// ref is the reference decoder's symbol vector and refRes its residual
	// ‖y − H·s‖², an upper bound on the ML metric that equals it whenever
	// the reference search completes.
	ref    []int
	refRes float64
}

// request is one HTTP request body and the frames it carries, in order.
type request struct {
	body     []byte
	frames   []int
	envelope bool
}

// inputs is everything generated from a workload and a seed.
type inputs struct {
	cons     *constellation.Constellation
	frames   []frame
	reqs     []request
	bodyHash string
	bodies   int64 // total request bytes
}

// generate builds the workload's frames and request bodies from seed. The
// same seed always yields byte-identical bodies.
func generate(w workload, seed uint64) (*inputs, error) {
	in := &inputs{cons: constellation.New(w.mod)}
	if w.scenario != "" {
		if err := in.genOFDM(w, seed); err != nil {
			return nil, err
		}
	} else if err := in.genIID(w, seed); err != nil {
		return nil, err
	}
	sum := sha256.New()
	for _, r := range in.reqs {
		sum.Write(r.body)
		in.bodies += int64(len(r.body))
	}
	in.bodyHash = hex.EncodeToString(sum.Sum(nil))
	return in, nil
}

func (in *inputs) genOFDM(w workload, seed uint64) error {
	sc, err := scenario.Lookup(w.scenario)
	if err != nil {
		return err
	}
	root := rng.New(seed)
	k := sc.Grid.Subcarriers
	for c := 0; c < w.cells; c++ {
		gen, err := ofdm.NewGenerator(sc.Grid, root.Child(uint64(c)).Uint64())
		if err != nil {
			return err
		}
		for b := 0; b < w.blocks; b++ {
			block, err := gen.Block()
			if err != nil {
				return err
			}
			// Blocks are symbol-major: one request per OFDM symbol.
			for t := 0; t < sc.Grid.Symbols; t++ {
				env := serve.DecodeRequest{Frames: make([]serve.DecodeRequest, k)}
				req := request{envelope: true, frames: make([]int, k)}
				for i, f := range block[t*k : (t+1)*k] {
					env.Frames[i] = wireFrame(f.H, f.Y, f.NoiseVar)
					req.frames[i] = len(in.frames)
					in.frames = append(in.frames, frame{h: f.H, y: f.Y, nv: f.NoiseVar, bits: f.Bits})
				}
				if req.body, err = json.Marshal(env); err != nil {
					return err
				}
				in.reqs = append(in.reqs, req)
			}
		}
	}
	return in.reference(bruteForceOracle)
}

func (in *inputs) genIID(w workload, seed uint64) error {
	cfg := mimo.Config{Tx: w.tx, Rx: w.rx, Mod: w.mod}
	r := rng.New(seed)
	for i := 0; i < w.frames; i++ {
		f, err := mimo.GenerateFrame(r, cfg, w.snrDB)
		if err != nil {
			return err
		}
		wf := wireFrame(f.H, f.Y, f.NoiseVar)
		body, err := json.Marshal(&wf)
		if err != nil {
			return err
		}
		in.reqs = append(in.reqs, request{body: body, frames: []int{len(in.frames)}})
		in.frames = append(in.frames, frame{h: f.H, y: f.Y, nv: f.NoiseVar, bits: f.Bits})
	}
	return in.reference(realSEOracle)
}

// wireFrame converts one frame to the /v1/decode wire form.
func wireFrame(h *cmatrix.Matrix, y cmatrix.Vector, nv float64) serve.DecodeRequest {
	req := serve.DecodeRequest{NoiseVar: nv, H: make([][][2]float64, h.Rows), Y: make([][2]float64, len(y))}
	for i := range req.H {
		row := h.Row(i)
		req.H[i] = make([][2]float64, len(row))
		for j, v := range row {
			req.H[i][j] = [2]float64{real(v), imag(v)}
		}
	}
	for i, v := range y {
		req.Y[i] = [2]float64{real(v), imag(v)}
	}
	return req
}

// oracle fills the reference answer of frames[lo:hi]; each call owns its
// own scratch state, so the range split runs in parallel.
type oracle func(cons *constellation.Constellation, frames []frame) error

// reference runs the oracle over every frame on nproc goroutines. Its time
// is spent before set-up starts and is excluded from every metric.
func (in *inputs) reference(o oracle) error {
	workers := runtime.NumCPU()
	per := (len(in.frames) + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		lo, hi := min(i*per, len(in.frames)), min((i+1)*per, len(in.frames))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = o(in.cons, in.frames[lo:hi])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bruteForceOracle is exhaustive ML over every candidate vector. Frames of
// one coherence block share one estimate matrix, so the candidate images
// H·s are computed once per matrix.
func bruteForceOracle(cons *constellation.Constellation, frames []frame) error {
	if len(frames) == 0 {
		return nil
	}
	m, n, q := frames[0].h.Cols, frames[0].h.Rows, cons.Size()
	total := 1
	for i := 0; i < m; i++ {
		total *= q
	}
	if total > 1<<16 {
		return fmt.Errorf("brute-force oracle: %d candidates is too many", total)
	}
	cands := make([][]int, total)
	for c := range cands {
		cands[c] = make([]int, m)
		for i, v := 0, c; i < m; i, v = i+1, v/q {
			cands[c][i] = v % q
		}
	}
	images := make([]complex128, total*n)
	var last *cmatrix.Matrix
	for fi := range frames {
		f := &frames[fi]
		if f.h != last {
			last = f.h
			for c, idx := range cands {
				img := images[c*n : (c+1)*n]
				for r := 0; r < n; r++ {
					var s complex128
					for j, hv := range f.h.Row(r) {
						s += hv * cons.Symbol(idx[j])
					}
					img[r] = s
				}
			}
		}
		best, bestRes := -1, math.Inf(1)
		for c := range cands {
			var res float64
			for r, v := range images[c*n : (c+1)*n] {
				d := f.y[r] - v
				res += real(d)*real(d) + imag(d)*imag(d)
			}
			if res < bestRes {
				best, bestRes = c, res
			}
		}
		f.ref = append([]int(nil), cands[best]...)
		f.refRes = bestRes
	}
	return nil
}

// realSEOracle decodes with the real-valued Schnorr–Euchner engine, which
// shares no search code with the complex sorted-DFS engine the servers run.
func realSEOracle(cons *constellation.Constellation, frames []frame) error {
	sd, err := sphere.New(sphere.Config{Const: cons, Strategy: sphere.RealSE})
	if err != nil {
		return err
	}
	for i := range frames {
		f := &frames[i]
		pre, err := sphere.Preprocess(f.h)
		if err != nil {
			return err
		}
		res, err := sd.DecodePre(pre, f.y, f.nv, 0)
		if err != nil {
			return err
		}
		f.ref = res.SymbolIdx
		f.refRes = residual(cons, f.h, f.y, f.ref)
	}
	return nil
}

// residual is ‖y − H·s‖² for symbol indices idx.
func residual(cons *constellation.Constellation, h *cmatrix.Matrix, y cmatrix.Vector, idx []int) float64 {
	var res float64
	for r := 0; r < h.Rows; r++ {
		s := y[r]
		for j, hv := range h.Row(r) {
			s -= hv * cons.Symbol(idx[j])
		}
		res += real(s)*real(s) + imag(s)*imag(s)
	}
	return res
}

// zfResidual is the residual of the zero-forcing decision on f, the floor
// every non-exact answer must meet.
func zfResidual(cons *constellation.Constellation, f *frame) (float64, error) {
	res, err := decoder.NewZF(cons).Decode(f.h, f.y, f.nv)
	if err != nil {
		return 0, err
	}
	return residual(cons, f.h, f.y, res.SymbolIdx), nil
}
