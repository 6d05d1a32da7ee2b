package sphere

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cmatrix"
	"repro/internal/decoder"
)

// ParallelSD implements the paper's future-work extension (Section V):
// partitioning the search tree over multiple Processing Entities. The root
// is expanded once and its first-level subtrees are distributed across
// pooled searches, each running the sequential depth-first loop; the sphere
// radius is shared through an atomic word so a leaf found by any PE
// immediately tightens pruning in all others — the synchronization step
// Nikitopoulos et al. [4] identify as the one unavoidable coupling between
// parallel sub-trees — and the node budget is shared the same way, so
// Config.MaxNodes bounds the expansions of all PEs together.
//
// Decoding runs through the sequential decoder's decodePre, so every Config
// knob (GEMM evaluation and its FP16 and ABFT variants, the initial-radius
// rules and retries, the anytime contract) holds as it does for SD. The
// detector remains exact: every subtree is explored (or pruned against the
// shared radius), so the result equals the ML solution.
type ParallelSD struct {
	sd      *SD
	Workers int // number of PEs; <= 0 selects GOMAXPROCS
}

// NewParallel builds a parallel sphere decoder. Only SortedDFS and PlainDFS
// subtree strategies are supported. Config.Recorder and Config.OnExpand are
// rejected: both are single-goroutine callbacks, and the PEs would call
// them concurrently.
func NewParallel(cfg Config, workers int) (*ParallelSD, error) {
	if cfg.Strategy != SortedDFS && cfg.Strategy != PlainDFS {
		return nil, fmt.Errorf("sphere: parallel decoder requires a DFS strategy, got %v", cfg.Strategy)
	}
	if cfg.Recorder != nil || cfg.OnExpand != nil {
		return nil, errors.New("sphere: parallel decoder cannot drive the single-goroutine Recorder or OnExpand callbacks")
	}
	sd, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &ParallelSD{sd: sd, Workers: workers}, nil
}

// Name implements decoder.Decoder.
func (d *ParallelSD) Name() string { return d.sd.Name() + "-parallel" }

// sharedRadius is an atomically updated float64 (bit-cast through uint64)
// holding the current squared sphere radius.
type sharedRadius struct{ bits atomic.Uint64 }

func (s *sharedRadius) store(v float64) { s.bits.Store(math.Float64bits(v)) }
func (s *sharedRadius) load() float64   { return math.Float64frombits(s.bits.Load()) }

// tighten lowers the radius to v if v is smaller, returning true when this
// call won the update.
func (s *sharedRadius) tighten(v float64) bool {
	for {
		old := s.bits.Load()
		if math.Float64frombits(old) <= v {
			return false
		}
		if s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return true
		}
	}
}

// peShared is what the PEs of one parallel attempt share: the sphere radius
// and the count of expansions charged against Config.MaxNodes.
type peShared struct {
	radius sharedRadius
	nodes  atomic.Int64
}

// Decode implements decoder.Decoder.
func (d *ParallelSD) Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*decoder.Result, error) {
	if err := decoder.CheckDims(h, y); err != nil {
		return nil, err
	}
	pre, err := Preprocess(h)
	if err != nil {
		return nil, fmt.Errorf("sphere: preprocessing failed: %w", err)
	}
	return d.decode(pre, y, noiseVar, pre.Flops)
}

// DecodePre is Decode against a precomputed channel factorization, letting
// batches under one coherence block share the QR work across frames.
func (d *ParallelSD) DecodePre(pre *Preprocessed, y cmatrix.Vector, noiseVar float64) (*decoder.Result, error) {
	return d.decode(pre, y, noiseVar, 0)
}

func (d *ParallelSD) decode(pre *Preprocessed, y cmatrix.Vector, noiseVar float64, qrFlops int64) (*decoder.Result, error) {
	workers := d.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := new(decoder.Result)
	if _, err := d.sd.decodePre(pre, y, noiseVar, qrFlops, false, res, workers); err != nil {
		return nil, err
	}
	return res, nil
}

// runParallel is one attempt of the partitioned DFS: s expands the root,
// then up to workers pooled searches pull its first-level children (in
// ascending-PD order under SortedDFS: the "tree of promise" ordering of
// [4]) from a shared queue and run runDFS under each. The winning leaf's
// path is copied into s's MST and the PE counters are summed into s's, so
// the caller assembles the result exactly as for a sequential search.
func (s *search) runParallel(workers int) error {
	sorted := s.cfg.Strategy == SortedDFS
	root := s.mst.Root()
	if s.m == 1 {
		return s.runDFS(sorted, root) // the root's children are leaves
	}
	if s.budgetExceeded() {
		return s.stopErr()
	}
	s.counters.NodesExpanded++
	s.evalChildren(root)
	if sorted {
		s.sortChildren()
	}
	subtrees := make([]int32, 0, s.p)
	for _, c := range s.order {
		if pd := s.childPD[c]; pd < s.radiusSq {
			subtrees = append(subtrees, s.mst.Add(root, c, pd))
		} else {
			s.counters.ChildrenPruned++
		}
	}
	s.noteListLen(len(subtrees))

	sh := &peShared{}
	sh.radius.store(s.radiusSq)
	sh.nodes.Store(s.counters.NodesExpanded)
	pes := make([]*search, min(workers, len(subtrees)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range pes {
		pe := acquireSearch(s.cfg, s.r)
		pe.ybar, pe.rowMass = s.ybar, s.rowMass
		pe.beginAttempt(s.radiusSq, s.deadline)
		pe.shared, pe.nodeLimit = sh, 0
		pes[w] = pe
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(subtrees); i = int(next.Add(1) - 1) {
				sub := pe.mst.Add(pe.mst.Root(), s.mst.Symbol(subtrees[i]), s.mst.PD(subtrees[i]))
				if pe.runDFS(sorted, sub) != nil {
					return // budget or deadline: pe.stopReason records which
				}
			}
		}()
	}
	wg.Wait()

	var best *search
	for _, pe := range pes {
		s.counters.Add(pe.counters)
		if pe.stopReason != "" {
			s.stopReason = pe.stopReason
		}
		if pe.bestLeaf >= 0 && (best == nil || pe.bestPD < best.bestPD) {
			best = pe
		}
	}
	if best != nil {
		s.adoptLeaf(best, subtrees)
	}
	s.radiusSq = sh.radius.load()
	for _, pe := range pes {
		pe.release()
	}
	if s.stopReason != "" {
		return s.stopErr()
	}
	return nil
}

// adoptLeaf copies pe's best leaf path below its first-level node into s's
// MST, under the matching node of subtrees, and makes it s's incumbent.
func (s *search) adoptLeaf(pe *search, subtrees []int32) {
	chain := pe.stack[:0] // pe's DFS stack is free scratch once it has run
	n := pe.bestLeaf
	for ; pe.mst.Depth(n) > 1; n = pe.mst.Parent(n) {
		chain = append(chain, n)
	}
	var id int32
	for _, sub := range subtrees {
		if s.mst.Symbol(sub) == pe.mst.Symbol(n) {
			id = sub
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		id = s.mst.Add(id, pe.mst.Symbol(chain[i]), pe.mst.PD(chain[i]))
	}
	pe.stack = chain[:0]
	s.bestLeaf, s.bestPD = id, pe.bestPD
}
