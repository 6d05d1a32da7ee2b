package core

import (
	"testing"

	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/trace"
)

// TestDecodeBatchOptionEquivalence: the variadic surface with no options
// searches every frame exactly, and WithFallback sheds every frame to the
// linear decision.
func TestDecodeBatchOptionEquivalence(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{Workers: 1})
	inputs, _ := batchFor(t, cfg4(), 8, 6, 91)

	plain, err := acc.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range plain.Results {
		if res.Quality != decoder.QualityExact {
			t.Fatalf("frame %d: unbudgeted batch produced quality %v", i, res.Quality)
		}
	}

	fbNew, err := acc.DecodeBatch(inputs, WithFallback())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range fbNew.Results {
		if res.Quality != decoder.QualityFallback {
			t.Fatalf("fallback batch produced quality %v", res.Quality)
		}
	}
}

// TestDecodeBatchTraced: WithTrace must yield one SearchTrace per input whose
// tallies match that frame's counters, plus preprocess/search phase spans
// parented on the batch span.
func TestDecodeBatchTraced(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{Workers: 4})
	inputs, _ := batchFor(t, cfg4(), 8, 5, 92)
	bt := trace.NewBatchTrace()
	rep, err := acc.DecodeBatch(inputs, WithTrace(bt))
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Frames) != len(inputs) {
		t.Fatalf("%d frame traces for %d inputs", len(bt.Frames), len(inputs))
	}
	for i, ft := range bt.Frames {
		if ft == nil {
			t.Fatalf("frame %d has no trace", i)
		}
		if got, want := ft.NodesVisited(), rep.Results[i].Counters.NodesExpanded; got != want {
			t.Fatalf("frame %d: trace visits %d, counters %d", i, got, want)
		}
	}
	phases := map[string]bool{}
	for _, s := range bt.Spans {
		phases[s.Name] = true
		if s.Parent != bt.Batch.ID {
			t.Fatalf("phase %q not parented on the batch span", s.Name)
		}
	}
	for _, want := range []string{"preprocess", "search"} {
		if !phases[want] {
			t.Fatalf("missing %q phase span (have %v)", want, phases)
		}
	}
	// The traced batch must be bit-exact with the untraced one.
	plain, err := acc.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Results {
		if plain.Results[i].Metric != rep.Results[i].Metric {
			t.Fatalf("frame %d: tracing changed the decode", i)
		}
	}
}

// TestDecodeBatchTracedShed: shed frames still carry a (zero-visit) trace
// with the shed reason, so a trace stream accounts for every frame.
func TestDecodeBatchTracedShed(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{Workers: 1})
	inputs, _ := batchFor(t, cfg4(), 8, 6, 93)
	bt := trace.NewBatchTrace()
	rep, err := acc.DecodeBatch(inputs, WithBudget(BatchBudget{NodeBudget: 1}), WithTrace(bt))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("1-node budget did not degrade the batch; premise failed")
	}
	sawShed := false
	for i, ft := range bt.Frames {
		if got, want := ft.NodesVisited(), rep.Results[i].Counters.NodesExpanded; got != want {
			t.Fatalf("frame %d: trace visits %d, counters %d", i, got, want)
		}
		if rep.Results[i].Quality == decoder.QualityFallback {
			sawShed = true
			if ft.DegradedBy == "" {
				t.Fatalf("shed frame %d has no degradation reason in its trace", i)
			}
		}
	}
	if !sawShed {
		t.Fatal("no frame was shed under a 1-node batch budget")
	}
}

// TestDecodeBatchTracedFallback: the fallback path fills traces too.
func TestDecodeBatchTracedFallback(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, cfg4(), 8, 3, 94)
	bt := trace.NewBatchTrace()
	rep, err := acc.DecodeBatch(inputs, WithFallback(), WithTrace(bt))
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Frames) != len(inputs) {
		t.Fatalf("%d traces for %d inputs", len(bt.Frames), len(inputs))
	}
	for i, ft := range bt.Frames {
		if ft.DegradedBy != decoder.DegradedByOverload {
			t.Fatalf("frame %d: degraded by %q, want overload", i, ft.DegradedBy)
		}
		if ft.NodesVisited() != 0 {
			t.Fatalf("frame %d: fallback decode visited %d nodes", i, ft.NodesVisited())
		}
		if rep.Results[i].Quality != decoder.QualityFallback {
			t.Fatalf("frame %d quality %v", i, rep.Results[i].Quality)
		}
	}
}
