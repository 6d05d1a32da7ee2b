package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/serve"
)

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.bodyHash != b.bodyHash {
			t.Errorf("%s: seed 7 gave bodies %s then %s", w.name, a.bodyHash, b.bodyHash)
		}
		if a.bodyHash == c.bodyHash {
			t.Errorf("%s: seeds 7 and 8 gave the same bodies", w.name)
		}
	}
}

// The brute-force oracle must agree with the repository's exhaustive ML
// decoder, which it does not share code with.
func TestBruteForceOracleIsML(t *testing.T) {
	w, err := lookupWorkload("ofdm-mobile")
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	ml := decoder.NewML(in.cons)
	for i := 0; i < len(in.frames); i += 97 {
		f := in.frames[i]
		res, err := ml.Decode(f.h, f.y, f.nv)
		if err != nil {
			t.Fatal(err)
		}
		for j := range f.ref {
			if f.ref[j] != res.SymbolIdx[j] {
				t.Fatalf("frame %d: oracle %v, ML %v", i, f.ref, res.SymbolIdx)
			}
		}
	}
}

// The traced backend must expose every optional facet the scheduler probes
// on a worker backend, with the wrapped backend's values.
func TestTracedBackendForwardsFacets(t *testing.T) {
	w, err := lookupWorkload("ofdm-static")
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := newAccelerator(w)
	if err != nil {
		t.Fatal(err)
	}
	var be serve.Backend = &tracedBackend{Backend: acc, t: newTracer()}
	batch := []core.BatchInput{{H: in.frames[0].h, Y: in.frames[0].y, NoiseVar: in.frames[0].nv}}
	for i := 0; i < 3; i++ {
		if _, err := be.DecodeBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	cs, ok := be.(cacheStatser)
	if !ok {
		t.Fatal("traced backend hides PreprocessCacheStats")
	}
	if _, ok := be.(sdcStatser); !ok {
		t.Fatal("traced backend hides PreprocessCacheSDCEvictions")
	}
	h, m := cs.PreprocessCacheStats()
	wh, wm := acc.PreprocessCacheStats()
	if h != wh || m != wm || h != 2 || m != 1 {
		t.Fatalf("cache stats through wrapper %d/%d, backend %d/%d, want 2/1", h, m, wh, wm)
	}
}

func TestCoveredIsUnionClippedToParent(t *testing.T) {
	parent := span{Start: 10, End: 100}
	kids := []span{{Start: 0, End: 20}, {Start: 15, End: 30}, {Start: 50, End: 60}, {Start: 90, End: 200}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10-30, 50-60, 90-100)", got)
	}
}

func TestQuietestKeepsLeastStolenQuarter(t *testing.T) {
	steal := []float64{0.10, 0, 0.30, 0, 0.05, 0.20, 0.01, 0.40, 0.02}
	xs := make([]stolen[int], len(steal))
	for i, s := range steal {
		xs[i] = stolen[int]{i, s}
	}
	got := quietest(xs)
	want := []int{1, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("kept %d slices, want %d", len(got), len(want))
	}
	for i, x := range got {
		if x.v != want[i] {
			t.Errorf("kept slice %d at %d, want slice %d", x.v, i, want[i])
		}
	}
	// On a quiet host the kept slices spread over the run.
	for i := range xs {
		xs[i].steal = 0
	}
	got = quietest(xs)
	want = []int{0, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("kept %d slices, want %d", len(got), len(want))
	}
	for i, x := range got {
		if x.v != want[i] {
			t.Errorf("kept slice %d at %d, want slice %d", x.v, i, want[i])
		}
	}
	if got := quietest(xs[:1]); len(got) != 1 {
		t.Errorf("one slice kept %d", len(got))
	}
}
