package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/mimo"
	"repro/internal/rng"
	"repro/internal/stream"
)

// testMIMO is the system every test serves: small enough that one decode is
// microseconds, big enough that the search is a real tree.
var testMIMO = mimo.Config{Tx: 4, Rx: 4, Mod: constellation.QAM4, Convention: channel.PerTransmitSymbol}

// newFactory returns a Backend factory over the optimized accelerator.
func newFactory(t testing.TB) func() (Backend, error) {
	t.Helper()
	return func() (Backend, error) {
		return core.New(fpga.Optimized, testMIMO.Mod, testMIMO.Tx, testMIMO.Rx, core.Options{ScalarEval: true})
	}
}

// genInputs draws deterministic test frames.
func genInputs(t testing.TB, n int, seed uint64) []core.BatchInput {
	t.Helper()
	r := rng.New(seed)
	out := make([]core.BatchInput, n)
	for i := range out {
		f, err := mimo.GenerateFrame(r, testMIMO, 12)
		if err != nil {
			t.Fatalf("GenerateFrame: %v", err)
		}
		out[i] = core.BatchInput{H: f.H, Y: f.Y, NoiseVar: f.NoiseVar}
	}
	return out
}

// newScheduler builds a started scheduler and registers cleanup.
func newScheduler(t testing.TB, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg, newFactory(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// slowBackend wraps a Backend and holds every batch decode for delay —
// deterministic worker saturation for the overload tests.
type slowBackend struct {
	Backend
	delay time.Duration
}

func (b *slowBackend) DecodeBatch(inputs []core.BatchInput, opts ...core.BatchOption) (*core.BatchReport, error) {
	time.Sleep(b.delay)
	return b.Backend.DecodeBatch(inputs, opts...)
}

func newSlowFactory(t *testing.T, delay time.Duration) func() (Backend, error) {
	t.Helper()
	inner := newFactory(t)
	return func() (Backend, error) {
		be, err := inner()
		if err != nil {
			return nil, err
		}
		return &slowBackend{Backend: be, delay: delay}, nil
	}
}

func TestSubmitMatchesDirectDecode(t *testing.T) {
	s := newScheduler(t, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	direct, err := core.New(fpga.Optimized, testMIMO.Mod, testMIMO.Tx, testMIMO.Rx, core.Options{ScalarEval: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range genInputs(t, 8, 7) {
		resp, err := s.Submit(context.Background(), in)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		want, err := direct.Decode(in.H, in.Y, in.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(resp.Result.SymbolIdx) != fmt.Sprint(want.SymbolIdx) {
			t.Fatalf("frame %d: served decision %v != direct %v", i, resp.Result.SymbolIdx, want.SymbolIdx)
		}
		if resp.Result.Quality != decoder.QualityExact {
			t.Fatalf("frame %d: quality %v, want exact", i, resp.Result.Quality)
		}
		if resp.BatchSize < 1 || resp.BatchSize > 4 {
			t.Fatalf("frame %d: batch size %d outside [1,4]", i, resp.BatchSize)
		}
	}
	st := s.Stats()
	if st.Completed != 8 || st.Submitted != 8 {
		t.Fatalf("stats: %+v", st)
	}
	if st.QualityCounts["exact"] != 8 {
		t.Fatalf("quality counts %v", st.QualityCounts)
	}
}

// TestSingleRequestMaxWaitExpiry: a lone request must not wait for company
// forever — the batch dispatches at MaxWait with size 1.
func TestSingleRequestMaxWaitExpiry(t *testing.T) {
	const wait = 30 * time.Millisecond
	s := newScheduler(t, Config{MaxBatch: 64, MaxWait: wait})
	in := genInputs(t, 1, 3)[0]
	start := time.Now()
	resp, err := s.Submit(context.Background(), in)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.BatchSize != 1 {
		t.Fatalf("batch size %d, want 1", resp.BatchSize)
	}
	// The batcher held the frame for MaxWait hoping for company.
	if elapsed < wait-5*time.Millisecond {
		t.Fatalf("single request served after %v, before MaxWait %v — timer did not gate dispatch", elapsed, wait)
	}
	if resp.Result.Quality != decoder.QualityExact {
		t.Fatalf("quality %v", resp.Result.Quality)
	}
}

// TestBurstSplitsAtMaxBatch: a burst larger than MaxBatch must split into
// multiple batches, none exceeding MaxBatch.
func TestBurstSplitsAtMaxBatch(t *testing.T) {
	const maxBatch, burst = 8, 27
	s := newScheduler(t, Config{MaxBatch: maxBatch, MaxWait: 20 * time.Millisecond, QueueCap: burst})
	inputs := genInputs(t, burst, 11)
	var wg sync.WaitGroup
	errs := make([]error, burst)
	sizes := make([]int, burst)
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), inputs[i])
			errs[i] = err
			if err == nil {
				sizes[i] = resp.BatchSize
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if sizes[i] > maxBatch {
			t.Fatalf("request %d served in a batch of %d > MaxBatch %d", i, sizes[i], maxBatch)
		}
	}
	st := s.Stats()
	if st.Completed != burst {
		t.Fatalf("completed %d, want %d", st.Completed, burst)
	}
	// 27 frames cannot fit in fewer than ceil(27/8) = 4 batches.
	if st.Batches < 4 {
		t.Fatalf("burst of %d served in %d batches; MaxBatch %d requires >= 4", burst, st.Batches, maxBatch)
	}
	if len(st.BatchSizeHist) != maxBatch {
		t.Fatalf("batch size hist length %d, want %d", len(st.BatchSizeHist), maxBatch)
	}
	var histFrames uint64
	for i, n := range st.BatchSizeHist {
		histFrames += uint64(i+1) * n
	}
	if histFrames != st.BatchedFrames {
		t.Fatalf("hist accounts for %d frames, stats say %d", histFrames, st.BatchedFrames)
	}
}

// TestCoalescing: under a concurrent burst the mean batch size must exceed
// one — the whole point of the scheduler.
func TestCoalescing(t *testing.T) {
	const burst = 32
	s := newScheduler(t, Config{MaxBatch: 16, MaxWait: 50 * time.Millisecond, QueueCap: burst})
	inputs := genInputs(t, burst, 5)
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), inputs[i]); err != nil {
				t.Errorf("Submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.MeanBatchSize <= 1 {
		t.Fatalf("mean batch size %.2f — burst of %d did not coalesce", st.MeanBatchSize, burst)
	}
}

// TestShutdownDrainsNonEmptyQueue: frames admitted before Close must still
// be decoded, even when the batcher is parked waiting for MaxWait.
func TestShutdownDrainsNonEmptyQueue(t *testing.T) {
	const pending = 5
	s, err := New(Config{MaxBatch: 100, MaxWait: time.Hour, QueueCap: 100}, newFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	inputs := genInputs(t, pending, 17)
	type outcome struct {
		resp *Response
		err  error
	}
	results := make(chan outcome, pending)
	for i := range inputs {
		go func(i int) {
			resp, err := s.Submit(context.Background(), inputs[i])
			results <- outcome{resp, err}
		}(i)
	}
	// Wait until all five are admitted (queued or held by the batcher).
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Submitted < pending {
		if time.Now().After(deadline) {
			t.Fatalf("submissions not admitted: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	s.Close() // must flush the partial batch, not strand it until MaxWait
	for i := 0; i < pending; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("pending request failed at shutdown: %v", o.err)
		}
		if o.resp.Result.Quality != decoder.QualityExact {
			t.Fatalf("pending request degraded at shutdown: %v", o.resp.Result.Quality)
		}
	}
	if _, err := s.Submit(context.Background(), inputs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if st := s.Stats(); st.Completed != pending || !st.Draining {
		t.Fatalf("post-close stats %+v", st)
	}
}

// TestOverloadReject: with a saturated worker and a bounded queue, the
// Reject policy must fail surplus load with the typed error instead of
// queueing without bound.
func TestOverloadReject(t *testing.T) {
	const burst = 12
	s, err := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1, QueueCap: 1, Policy: Reject},
		newSlowFactory(t, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inputs := genInputs(t, burst, 23)
	var wg sync.WaitGroup
	var mu sync.Mutex
	rejected, completed := 0, 0
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(), inputs[i])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
			case errors.Is(err, ErrOverloaded):
				rejected++
			default:
				t.Errorf("Submit %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if rejected == 0 {
		t.Fatalf("no rejections from a %d-burst against a 50ms worker with QueueCap 1", burst)
	}
	if completed == 0 {
		t.Fatal("everything rejected — admission is broken")
	}
	st := s.Stats()
	if st.Rejected != uint64(rejected) || st.Completed != uint64(completed) {
		t.Fatalf("stats %+v vs observed rejected=%d completed=%d", st, rejected, completed)
	}
}

// TestOverloadShedToLinear: surplus load gets an immediate linear-fallback
// decision instead of an error.
func TestOverloadShedToLinear(t *testing.T) {
	const burst = 12
	s, err := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1, QueueCap: 1, Policy: ShedToLinear},
		newSlowFactory(t, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inputs := genInputs(t, burst, 29)
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed := 0
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), inputs[i])
			if err != nil {
				t.Errorf("Submit %d: %v (shed policy must never error on overload)", i, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if resp.Shed {
				shed++
				if resp.Result.Quality != decoder.QualityFallback {
					t.Errorf("shed response quality %v, want fallback", resp.Result.Quality)
				}
				if resp.Result.DegradedBy != decoder.DegradedByOverload {
					t.Errorf("shed response DegradedBy %q, want %q", resp.Result.DegradedBy, decoder.DegradedByOverload)
				}
			}
		}(i)
	}
	wg.Wait()
	if shed == 0 {
		t.Fatalf("no sheds from a %d-burst against a 50ms worker with QueueCap 1", burst)
	}
	st := s.Stats()
	if st.Shed != uint64(shed) {
		t.Fatalf("stats shed %d, observed %d", st.Shed, shed)
	}
	if st.QualityCounts["fallback"] == 0 {
		t.Fatalf("quality counts missing fallback: %v", st.QualityCounts)
	}
}

// TestOverloadBlock: every request eventually completes at full quality;
// a context deadline frees a parked submitter.
func TestOverloadBlock(t *testing.T) {
	const burst = 8
	s, err := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1, QueueCap: 1, Policy: Block},
		newSlowFactory(t, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inputs := genInputs(t, burst, 31)
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), inputs[i])
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			if resp.Result.Quality != decoder.QualityExact {
				t.Errorf("Submit %d: quality %v under Block (nothing should degrade)", i, resp.Result.Quality)
			}
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.Completed != burst || st.Rejected != 0 || st.Shed != 0 {
		t.Fatalf("stats %+v", st)
	}

	// Saturate again and park a submitter behind a tiny context deadline.
	var hold sync.WaitGroup
	for i := 0; i < 4; i++ {
		hold.Add(1)
		go func(i int) {
			defer hold.Done()
			_, _ = s.Submit(context.Background(), inputs[i])
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let the saturators claim the queue
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, inputs[4]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked submit: %v, want context.DeadlineExceeded", err)
	}
	hold.Wait()
}

// TestConcurrentSubmitters hammers the scheduler from many goroutines;
// run under -race this is the data-race regression for the whole package.
func TestConcurrentSubmitters(t *testing.T) {
	const workers, perWorker = 8, 16
	s := newScheduler(t, Config{MaxBatch: 8, MaxWait: 2 * time.Millisecond, Workers: 2, QueueCap: 64})
	inputs := genInputs(t, workers*perWorker, 41)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Submit(context.Background(), inputs[w*perWorker+i]); err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed != workers*perWorker {
		t.Fatalf("completed %d, want %d", st.Completed, workers*perWorker)
	}
	if st.QueueWait.Count != workers*perWorker || st.QueueDepth != 0 || st.InFlight != 0 {
		t.Fatalf("inconsistent stats %+v", st)
	}
}

// TestCloseDuringSubmissions races Close against live traffic: every submit
// must resolve to either a decision or ErrClosed — never hang, never panic.
func TestCloseDuringSubmissions(t *testing.T) {
	s, err := New(Config{MaxBatch: 4, MaxWait: time.Millisecond, Workers: 2, QueueCap: 16, Policy: Block}, newFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	inputs := genInputs(t, 64, 43)
	var wg sync.WaitGroup
	var mu sync.Mutex
	served, closed := 0, 0
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(), inputs[i])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, ErrClosed):
				closed++
			default:
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(500 * time.Microsecond)
	s.Close()
	wg.Wait()
	if served+closed != len(inputs) {
		t.Fatalf("served %d + closed %d != %d", served, closed, len(inputs))
	}
}

func TestInvalidInputAtAdmission(t *testing.T) {
	s := newScheduler(t, Config{})
	in := genInputs(t, 1, 47)[0]
	bad := in
	bad.NoiseVar = -1
	if _, err := s.Submit(context.Background(), bad); !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("negative noise variance: %v, want ErrInvalidInput", err)
	}
	wrongY := in
	wrongY.Y = wrongY.Y[:len(wrongY.Y)-1]
	if _, err := s.Submit(context.Background(), wrongY); !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("short observation: %v, want ErrInvalidInput", err)
	}
	if st := s.Stats(); st.Invalid != 2 || st.Submitted != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBatchBudgetDegradesNotDrops: a starved node budget degrades quality
// but every frame still gets a decision.
func TestBatchBudgetDegradesNotDrops(t *testing.T) {
	const burst = 16
	s := newScheduler(t, Config{
		MaxBatch: 8, MaxWait: 20 * time.Millisecond, QueueCap: burst,
		Budget: core.BatchBudget{NodeBudget: 1},
	})
	inputs := genInputs(t, burst, 53)
	var wg sync.WaitGroup
	var mu sync.Mutex
	degraded := 0
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), inputs[i])
			if err != nil {
				t.Errorf("Submit %d: %v (budgets must degrade, not error)", i, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if resp.Result.Quality.Degraded() {
				degraded++
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed != burst {
		t.Fatalf("completed %d, want %d", st.Completed, burst)
	}
	if degraded == 0 || st.Degraded == 0 {
		t.Fatal("a 1-node budget over multi-frame batches produced no degraded results")
	}
}

// --- Satellite: enum String coverage ---------------------------------------

func TestOverloadPolicyString(t *testing.T) {
	cases := map[OverloadPolicy]string{
		Reject:             "reject",
		ShedToLinear:       "shed-to-linear",
		Block:              "block",
		OverloadPolicy(99): "OverloadPolicy(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	for _, p := range []OverloadPolicy{Reject, ShedToLinear, Block} {
		got, err := ParseOverloadPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseOverloadPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseOverloadPolicy("yolo"); err == nil {
		t.Error("ParseOverloadPolicy accepted garbage")
	}
	// The other enums that render in logs/metrics must also name themselves.
	if decoder.QualityBestEffort.String() != "best-effort" {
		t.Errorf("Quality.String: %q", decoder.QualityBestEffort.String())
	}
	if stream.ShedToLinear.String() != "shed-to-linear" {
		t.Errorf("PolicyMode.String: %q", stream.ShedToLinear.String())
	}
}

// --- Metrics unit coverage --------------------------------------------------

func TestDurationDistQuantile(t *testing.T) {
	var h durHist
	if q := h.snapshot().Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile %v", q)
	}
	for i := 0; i < 90; i++ {
		h.observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(40 * time.Millisecond)
	}
	d := h.snapshot()
	if p50 := d.Quantile(0.50); p50 > time.Millisecond {
		t.Fatalf("p50 %v, want <= 100µs bucket", p50)
	}
	if p99 := d.Quantile(0.99); p99 < 10*time.Millisecond {
		t.Fatalf("p99 %v, want in the tens-of-ms bucket", p99)
	}
	if d.Max != 40*time.Millisecond {
		t.Fatalf("max %v", d.Max)
	}
	if mean := d.Mean(); mean < 3*time.Millisecond || mean > 6*time.Millisecond {
		t.Fatalf("mean %v", mean)
	}
}

// TestRuntimeHealthStats: the /metrics runtime fields must populate — a
// non-zero (or at least well-defined) cumulative GC pause and a finite
// allocs-per-frame figure once frames have completed.
func TestRuntimeHealthStats(t *testing.T) {
	s := newScheduler(t, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	for i, in := range genInputs(t, 6, 31) {
		if _, err := s.Submit(context.Background(), in); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Completed != 6 {
		t.Fatalf("completed %d, want 6", st.Completed)
	}
	// Allocations certainly happened between newMetrics and now (the test
	// harness alone allocates), so per-frame allocs must be strictly
	// positive and finite.
	if st.DecodeAllocsPerOp <= 0 || math.IsInf(st.DecodeAllocsPerOp, 0) || math.IsNaN(st.DecodeAllocsPerOp) {
		t.Fatalf("decode_allocs_per_op = %v, want finite > 0", st.DecodeAllocsPerOp)
	}
	// GCPauseNs is cumulative since process start; forcing a cycle makes it
	// observable regardless of how little the suite has allocated so far.
	runtime.GC()
	if got := s.Stats().GCPauseNs; got == 0 {
		t.Fatalf("go_gc_pause_ns = 0 after forced GC")
	}
}
