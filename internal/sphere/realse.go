package sphere

import (
	"math"

	"repro/internal/cmatrix"
)

// This file holds the real-valued hot-path decode engine: the RealSE
// strategy runs the sphere search on the 2M-dimensional real embedding of
// the channel (Azzam & Ayanoglu's real-valued decomposition) with
// Schnorr–Euchner zig-zag enumeration. On a PAM axis the children of a node
// sit on a uniform amplitude grid, so the ascending-PD child order is
// analytic: start at the level nearest the unconstrained solution and walk
// outward. No per-node sort runs (CompareOps stays 0 — the paper's phase-3
// hardware sorter is deleted from the datapath), and the first candidate
// whose PD leaves the sphere proves every remaining sibling out too.
//
// The engine reuses the pooled search state, the MST arena, the anytime
// budget/deadline contract, the trace recorder, and the decode path and
// linear fallback helpers (sphere.go) of the complex-valued strategies; only
// the per-node expansion differs.

// acquireRealSearch checks a search out of the pool, sized for the real
// reduced system: tree height rp.Dim (= 2M), branching len(pam).
func acquireRealSearch(cfg *Config, rp *RealPre, pam []float64) *search {
	s := searchPool.Get().(*search)
	dim := rp.Dim
	s.cfg, s.m, s.p = cfg, dim, len(pam)
	s.r, s.ybar, s.pts = nil, nil, nil
	s.pam = pam
	s.rr = rp.R
	s.rec = cfg.Recorder
	if s.mst == nil {
		s.mst = NewMST(dim)
	}
	s.pathBuf = growInts(s.pathBuf, dim)
	s.pathIDs = growInt32s(s.pathIDs, dim)
	s.childPD = growFloats(s.childPD, s.p)
	s.order = growInts(s.order, s.p)
	s.incPath = false
	return s
}

// computeRealYbar rotates y with the complex kernel (ȳ = Qᴴy, the same
// per-frame rotation the complex hot path runs) and interleaves the result
// into the real ordering (Re ȳ_j, Im ȳ_j per antenna) — which IS ȳr = Qrᵀ·yr
// for the interleaved real factorization (see RealPre). Pooled buffers only.
// Both ȳ and ȳr are installed on the search.
func (s *search) computeRealYbar(f *cmatrix.QRFactorization, y cmatrix.Vector) {
	ybar := s.computeYbar(f, y)
	s.rybarBuf = growFloats(s.rybarBuf, 2*len(ybar))
	for k, v := range ybar {
		s.rybarBuf[2*k], s.rybarBuf[2*k+1] = real(v), imag(v)
	}
	s.rybar = s.rybarBuf
}

// nearestPAM returns the index of the ascending-ordered PAM level nearest to
// z. The grid is uniform with spacing step, so this is O(1) rounding.
// Floor(x+0.5) instead of math.Round: Floor compiles to a single ROUNDSD on
// amd64 while Round does not, and the two differ only on exact half-ties
// between two equidistant levels, where either index is a nearest level.
func nearestPAM(z float64, pam []float64, step float64) int {
	c := int(math.Floor((z-pam[0])/step + 0.5))
	if c < 0 {
		return 0
	}
	if c > len(pam)-1 {
		return len(pam) - 1
	}
	return c
}

// runRealSE is the Schnorr–Euchner depth-first traversal of the real tree.
// Node expansion at depth d decides real coordinate k = dim−1−d. Children
// are emitted in ascending-PD order by two-pointer zig-zag around the
// nearest PAM level, so the first child at or beyond the radius prunes the
// whole remainder of the sibling batch — the analytic replacement for
// sortChildren, with zero comparator (CompareOps) work.
//
// Counter conventions match the sorted-DFS engine: every expansion generates
// the full |PAM| child batch (skipped siblings count as pruned, so
// pruned+kept == branching per expansion and the trace invariants hold
// unchanged), and the ascending order means at most one leaf commits per
// leaf-level expansion.
func (s *search) runRealSE() error {
	s.incPath = true
	defer func() { s.incPath = false }()
	stack := s.stack[:0]
	defer func() { s.stack = stack[:0] }()

	linf := s.cfg.Norm == NormLInf
	dim := s.m
	l := s.p
	pam := s.pam
	step := pam[1] - pam[0]

	stack = append(stack, s.mst.Root())
	for len(stack) > 0 {
		s.noteListLen(len(stack))
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// A node enqueued earlier may have lost its sphere membership to a
		// later radius update; re-check before paying for the expansion.
		// Valid under both norms: PDs are monotone non-decreasing down the
		// tree (sum of squares, or running max).
		if s.mst.PD(id) >= s.radiusSq {
			s.counters.ChildrenPruned++
			if s.rec != nil {
				s.rec.Children(s.mst.Depth(id), 1, 0)
			}
			continue
		}
		if s.budgetExceeded() {
			return s.stopErr()
		}
		s.counters.NodesExpanded++
		depth := s.mst.Depth(id)
		if s.rec != nil {
			s.rec.NodeExpanded(depth)
		}
		if s.cfg.OnExpand != nil {
			s.cfg.OnExpand(depth)
		}
		k := dim - 1 - depth
		s.updatePath(id, depth)

		row := s.rr[k*dim : (k+1)*dim]
		// Two accumulators keep the path inner product off the FMA latency
		// chain (it runs every expansion, length up to dim−1).
		var in0, in1 float64
		path := s.pathBuf
		i := k + 1
		for ; i+2 <= dim; i += 2 {
			in0 += row[i] * pam[path[i]]
			in1 += row[i+1] * pam[path[i+1]]
		}
		for ; i < dim; i++ {
			in0 += row[i] * pam[path[i]]
		}
		target := s.rybar[k] - (in0 + in1)
		rkk := row[k] // > 0: QRReal normalizes the diagonal positive
		parentPD := s.mst.PD(id)
		// Grid coordinate of the unconstrained solution; the nearest level
		// and the zig-zag both come from it.
		zg := (target/rkk - pam[0]) / step
		c0 := nearestPAM(target/rkk, pam, step)

		s.counters.ChildrenGenerated += int64(l)
		s.counters.EvalDepthSum += int64(dim - k)
		s.counters.RegularLoads += int64(dim - k)

		isLeafLevel := depth == dim-1
		lo, hi := c0-1, c0+1
		c := c0
		kept, evaluated := 0, 0
		for {
			evaluated++
			diff := target - rkk*pam[c]
			pd := diff * diff
			if linf {
				if parentPD > pd {
					pd = parentPD
				}
			} else {
				pd += parentPD
			}
			if pd >= s.radiusSq {
				// Ascending order: every remaining sibling is at least as
				// far out. Prune the whole tail of the batch.
				break
			}
			if isLeafLevel {
				s.commitLeaf(id, c, pd)
				kept++
				// commitLeaf shrank the radius to pd, so the next sibling
				// (pd' ≥ pd) cannot pass; still loop once more so the break
				// above tallies the tail as pruned.
			} else {
				// Buffer survivors in ascending order; pushed in reverse
				// below so the best child pops first.
				s.order[kept] = c
				s.childPD[kept] = pd
				kept++
			}
			if evaluated == l {
				break
			}
			// Zig-zag to the next-nearest untried level.
			switch {
			case lo < 0:
				c, hi = hi, hi+1
			case hi > l-1:
				c, lo = lo, lo-1
			case zg-float64(lo) <= float64(hi)-zg:
				c, lo = lo, lo-1
			default:
				c, hi = hi, hi+1
			}
		}
		s.counters.ChildrenPruned += int64(l - kept)
		// Cost model: path inner product, the division, and ~4 flops per
		// evaluated candidate (multiply, subtract, square, accumulate/max).
		s.counters.OtherFlops += 2*int64(dim-1-k) + 2 + 4*int64(evaluated)
		if s.rec != nil {
			s.rec.Children(depth+1, l-kept, kept)
		}
		if isLeafLevel {
			continue
		}
		for i := kept - 1; i >= 0; i-- {
			stack = append(stack, s.mst.Add(id, s.order[i], s.childPD[i]))
		}
	}
	return nil
}
