package sphere

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestParallelMatchesML(t *testing.T) {
	r := rng.New(21)
	c := constellation.New(constellation.QAM4)
	ml := decoder.NewML(c)
	for _, workers := range []int{1, 2, 4, 0} {
		pd, err := NewParallel(Config{Const: c, Strategy: SortedDFS}, workers)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			h, y, nv, _ := makeInstance(r, c, 5, 4, 6)
			want, err := ml.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pd.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Metric-want.Metric) > 1e-6*(1+want.Metric) {
				t.Fatalf("workers=%d trial %d: parallel %v, ML %v", workers, trial, got.Metric, want.Metric)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rng.New(22)
	c := constellation.New(constellation.QAM16)
	seq := MustNew(Config{Const: c, Strategy: SortedDFS})
	par, err := NewParallel(Config{Const: c, Strategy: SortedDFS}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		h, y, nv, _ := makeInstance(r, c, 6, 5, 10)
		rs, err := seq.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := par.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rs.Metric-rp.Metric) > 1e-6*(1+rs.Metric) {
			t.Fatalf("trial %d: sequential %v, parallel %v", trial, rs.Metric, rp.Metric)
		}
		for i := range rs.SymbolIdx {
			if rs.SymbolIdx[i] != rp.SymbolIdx[i] {
				t.Fatalf("trial %d: symbol vectors differ at %d", trial, i)
			}
		}
	}
}

func TestParallelRejectsNonDFS(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	if _, err := NewParallel(Config{Const: c, Strategy: BFS}, 2); err == nil {
		t.Fatal("BFS accepted by parallel decoder")
	}
	if _, err := NewParallel(Config{Const: c, Strategy: BestFS}, 2); err == nil {
		t.Fatal("BestFS accepted by parallel decoder")
	}
}

func TestParallelName(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	pd, err := NewParallel(Config{Const: c, Strategy: SortedDFS}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Name() != "SD-SortedDFS-parallel" {
		t.Fatalf("name = %q", pd.Name())
	}
	abft, err := NewParallel(Config{Const: c, Strategy: SortedDFS, VerifyGEMM: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if abft.Name() != "SD-SortedDFS+GEMM+ABFT-parallel" {
		t.Fatalf("name = %q", abft.Name())
	}
}

func TestParallelCountersAggregate(t *testing.T) {
	r := rng.New(23)
	c := constellation.New(constellation.QAM4)
	pd, err := NewParallel(Config{Const: c, Strategy: SortedDFS}, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, y, nv, _ := makeInstance(r, c, 8, 8, 6)
	res, err := pd.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.NodesExpanded == 0 || res.Counters.LeavesReached == 0 {
		t.Fatalf("empty counters: %+v", res.Counters)
	}
	if res.Counters.ChildrenGenerated != res.Counters.NodesExpanded*int64(c.Size()) {
		t.Fatal("child conservation violated in parallel trace")
	}
}

func TestParallelDimsChecked(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	pd, err := NewParallel(Config{Const: c, Strategy: SortedDFS}, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, y, _, _ := makeInstance(rng.New(24), c, 4, 4, 10)
	if _, err := pd.Decode(h, y[:3], 0.1); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSharedRadiusTighten(t *testing.T) {
	s := &sharedRadius{}
	s.store(math.Inf(1))
	if !s.tighten(5) {
		t.Fatal("tighten from +Inf failed")
	}
	if s.tighten(7) {
		t.Fatal("tighten raised the radius")
	}
	if got := s.load(); got != 5 {
		t.Fatalf("radius = %v", got)
	}
	if !s.tighten(2) || s.load() != 2 {
		t.Fatal("second tighten failed")
	}
}

func TestParallelRaceFree(t *testing.T) {
	// Exercise concurrent radius updates under -race with many workers on a
	// hard instance.
	r := rng.New(25)
	c := constellation.New(constellation.QAM4)
	pd, err := NewParallel(Config{Const: c, Strategy: SortedDFS}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		h, y, nv, _ := makeInstance(r, c, 10, 10, 2)
		if _, err := pd.Decode(h, y, nv); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParallelBudgetDegrades(t *testing.T) {
	r := rng.New(26)
	c := constellation.New(constellation.QAM16)
	zf := decoder.NewZF(c)
	pd, err := NewParallel(Config{Const: c, Strategy: SortedDFS, MaxNodes: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		h, y, nv, _ := makeInstance(r, c, 8, 8, 4)
		res, err := pd.Decode(h, y, nv)
		if err != nil {
			t.Fatalf("trial %d: degraded parallel decode failed: %v", trial, err)
		}
		if !res.Quality.Degraded() {
			t.Fatalf("trial %d: 4-node budget not flagged (quality %v)", trial, res.Quality)
		}
		if res.DegradedBy != decoder.DegradedByBudget {
			t.Fatalf("trial %d: DegradedBy = %q", trial, res.DegradedBy)
		}
		zres, err := zf.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metric > zres.Metric*(1+1e-9) {
			t.Fatalf("trial %d: degraded metric %v worse than ZF %v", trial, res.Metric, zres.Metric)
		}
	}
}

func TestParallelHardBudget(t *testing.T) {
	r := rng.New(27)
	c := constellation.New(constellation.QAM16)
	pd, err := NewParallel(Config{Const: c, Strategy: SortedDFS, MaxNodes: 4, HardBudget: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, y, nv, _ := makeInstance(r, c, 8, 8, 4)
	if _, err := pd.Decode(h, y, nv); err == nil {
		t.Fatal("hard budget exhaustion not reported")
	}
}

// TestParallelBudgetSpansPEs: MaxNodes bounds the expansions of all PEs
// together, as Config.MaxNodes documents, not the expansions of each subtree.
func TestParallelBudgetSpansPEs(t *testing.T) {
	r := rng.New(26)
	c := constellation.New(constellation.QAM16)
	pd, err := NewParallel(Config{Const: c, Strategy: SortedDFS, MaxNodes: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		h, y, nv, _ := makeInstance(r, c, 8, 8, 4)
		res, err := pd.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.NodesExpanded > 4 {
			t.Fatalf("trial %d: %d nodes expanded under MaxNodes 4", trial, res.Counters.NodesExpanded)
		}
	}
}

// TestParallelHonoursConfig: every Config knob the parallel decoder accepts
// acts as it does on the sequential decoder, and the single-goroutine
// callbacks are refused at construction.
func TestParallelHonoursConfig(t *testing.T) {
	c := constellation.New(constellation.QAM16)
	h, y, nv, _ := makeInstance(rng.New(28), c, 8, 8, 12)
	pre, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MustNew(Config{Const: c}).DecodePre(pre, y, nv, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameAsSequential := func(t *testing.T, res *decoder.Result) {
		t.Helper()
		if res.Quality != decoder.QualityExact || math.Abs(res.Metric-want.Metric) > 1e-9*(1+want.Metric) {
			t.Fatalf("quality %v metric %v, sequential exact metric %v", res.Quality, res.Metric, want.Metric)
		}
		for i := range want.SymbolIdx {
			if res.SymbolIdx[i] != want.SymbolIdx[i] {
				t.Fatalf("symbol vectors differ at antenna %d", i)
			}
		}
	}
	var fault atomic.Bool
	cases := []struct {
		name  string
		cfg   Config
		check func(t *testing.T, name string, res *decoder.Result, info *SearchInfo, err error)
	}{
		{"UseGEMM", Config{UseGEMM: true}, func(t *testing.T, name string, res *decoder.Result, _ *SearchInfo, err error) {
			if err != nil || res.Counters.GEMMCalls == 0 || !strings.Contains(name, "+GEMM") {
				t.Fatalf("err %v, %d GEMM calls, name %q", err, res.Counters.GEMMCalls, name)
			}
			sameAsSequential(t, res)
		}},
		{"FP16GEMM", Config{FP16GEMM: true}, func(t *testing.T, name string, res *decoder.Result, _ *SearchInfo, err error) {
			if err != nil || res.Counters.GEMMCalls == 0 || !strings.Contains(name, "+FP16") {
				t.Fatalf("err %v, %d GEMM calls, name %q", err, res.Counters.GEMMCalls, name)
			}
		}},
		{"VerifyGEMM+GEMMFault", Config{VerifyGEMM: true, GEMMFault: func() bool { return fault.Swap(false) }},
			func(t *testing.T, name string, res *decoder.Result, _ *SearchInfo, err error) {
				if err != nil || res.Counters.SDCDetected != 1 || res.Counters.SDCRecovered != 1 {
					t.Fatalf("err %v, SDC detected %d recovered %d, want 1/1",
						err, res.Counters.SDCDetected, res.Counters.SDCRecovered)
				}
				sameAsSequential(t, res)
			}},
		{"tiny InitialRadiusSq", Config{InitialRadiusSq: 1e-9}, func(t *testing.T, _ string, res *decoder.Result, info *SearchInfo, err error) {
			if err != nil || info.Retries == 0 {
				t.Fatalf("err %v, retries %v", err, info)
			}
			sameAsSequential(t, res)
		}},
		{"tiny InitialRadiusSq+DisableRetry", Config{InitialRadiusSq: 1e-9, DisableRetry: true}, func(t *testing.T, _ string, _ *decoder.Result, _ *SearchInfo, err error) {
			if !errors.Is(err, ErrNoLeaf) {
				t.Fatalf("err %v, want ErrNoLeaf", err)
			}
		}},
		{"AutoRadius", Config{AutoRadius: true}, func(t *testing.T, _ string, res *decoder.Result, _ *SearchInfo, err error) {
			if err != nil {
				t.Fatal(err)
			}
			sameAsSequential(t, res)
		}},
		{"BabaiRadius", Config{BabaiRadius: true}, func(t *testing.T, _ string, res *decoder.Result, _ *SearchInfo, err error) {
			if err != nil {
				t.Fatal(err)
			}
			sameAsSequential(t, res)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fault.Store(true)
			tc.cfg.Const = c
			par, err := NewParallel(tc.cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			var res decoder.Result
			info, err := par.sd.decodePre(pre, y, nv, 0, true, &res, par.Workers)
			tc.check(t, par.Name(), &res, info, err)
		})
	}

	if _, err := NewParallel(Config{Const: c, Recorder: trace.NewSearchTrace()}, 2); err == nil {
		t.Error("Recorder accepted by the parallel decoder")
	}
	if _, err := NewParallel(Config{Const: c, OnExpand: func(int) {}}, 2); err == nil {
		t.Error("OnExpand accepted by the parallel decoder")
	}
}
