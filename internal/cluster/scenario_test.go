package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// TestProxyScenarioSplit: labeled frames must show up in the proxy's
// per-scenario counters — submitted/ok on the healthy path, failovers when
// the primary dies, fallbacks when every replica is down — while unlabeled
// traffic stays out of the split entirely.
func TestProxyScenarioSplit(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b"), newStubShard(t, 1, "c")}
	p := newTestProxy(t, stubs, nil)
	frames := genFrames(t, 3, 91)

	// Healthy path, labeled.
	for i := 0; i < 4; i++ {
		req := toWire(frames[0])
		req.Scenario = "grid"
		if _, err := p.Decode(context.Background(), req); err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
	}
	// Unlabeled traffic.
	if _, err := p.Decode(context.Background(), toWire(frames[1])); err != nil {
		t.Fatal(err)
	}

	st := p.Stats()
	grid, ok := st.Scenarios["grid"]
	if !ok {
		t.Fatalf("no grid split in %+v", st.Scenarios)
	}
	if grid.Submitted != 4 || grid.OK != 4 || grid.Failed != 0 {
		t.Errorf("grid counters %+v, want 4 submitted / 4 ok / 0 failed", grid)
	}
	if grid.Failovers != 0 || grid.Fallbacks != 0 {
		t.Errorf("healthy path recorded degraded serves: %+v", grid)
	}
	if _, ok := st.Scenarios[""]; ok {
		t.Error("unlabeled traffic leaked into the scenario split")
	}

	// Kill every shard: the labeled frame must be answered by the local
	// fallback and counted as such.
	for _, s := range stubs {
		s.fail(500, "internal")
	}
	req := toWire(frames[2])
	req.Scenario = "degraded"
	resp, err := p.Decode(context.Background(), req)
	if err != nil {
		t.Fatalf("all-dark decode: %v", err)
	}
	if !resp.Fallback {
		t.Fatalf("all-dark decode not served by fallback: %+v", resp)
	}
	st = p.Stats()
	deg := st.Scenarios["degraded"]
	if deg.Submitted != 1 || deg.OK != 1 || deg.Fallbacks != 1 {
		t.Errorf("degraded counters %+v, want 1 submitted / 1 ok / 1 fallback", deg)
	}
	// The stats snapshot must be a copy, not a live map.
	st.Scenarios["degraded"] = ScenarioStats{}
	if p.Stats().Scenarios["degraded"].Submitted != 1 {
		t.Error("Stats returned a live scenario map")
	}
}

// TestHTTPEnvelopeScenario: an envelope-level label reaches every frame that
// does not set its own, in the proxy's split and on the forwarded frames.
func TestHTTPEnvelopeScenario(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b")}
	p := newTestProxy(t, stubs, nil)
	front := httptest.NewServer(NewHandler(p))
	defer front.Close()

	env := serve.DecodeRequest{Scenario: "grid"}
	for _, f := range genFrames(t, 3, 93) {
		env.Frames = append(env.Frames, *toWire(f))
	}
	env.Frames[2].Scenario = "own"
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/decode", "application/json", bytesReader(body))
	if err != nil {
		t.Fatalf("POST /v1/decode: %v", err)
	}
	var br BatchDecodeResponse
	mustDecode(t, resp, http.StatusOK, &br)
	for i, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("frame %d: %s", i, r.Error)
		}
	}

	st := p.Stats()
	if grid, own := st.Scenarios["grid"], st.Scenarios["own"]; grid.Submitted != 2 || grid.OK != 2 || own.Submitted != 1 {
		t.Errorf("proxy split grid %+v, own %+v; want 2 and 1 submitted", grid, own)
	}
	forwarded := map[string]int{}
	for _, s := range stubs {
		s.mu.Lock()
		for label, n := range s.labels {
			forwarded[label] += n
		}
		s.mu.Unlock()
	}
	if forwarded["grid"] != 2 || forwarded["own"] != 1 || len(forwarded) != 2 {
		t.Errorf("shards saw labels %v, want grid:2 own:1", forwarded)
	}
}
