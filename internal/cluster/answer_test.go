package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/serve"
)

// pieces are the fragments random answer strings are built from: everything
// encoding/json escapes, and plain text between.
var pieces = []string{
	"http://127.0.0.1:8081", "exact", "cluster", " ", "é", "🙂", `"`, `\`, "<", ">", "&",
	"\x00", "\n", "\t", "\x1f", "\u2028", "\u2029", "\xff", "\xc3",
}

func randString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.IntN(5); n > 0; n-- {
		b.WriteString(pieces[r.IntN(len(pieces))])
	}
	return b.String()
}

func randResponse(r *rand.Rand) *DecodeResponse {
	var sym []int
	if r.IntN(4) > 0 {
		sym = make([]int, r.IntN(5))
		for i := range sym {
			sym[i] = r.IntN(16)
		}
	}
	metric := r.NormFloat64() * math.Pow(10, float64(r.IntN(50)-25))
	if r.IntN(8) == 0 {
		metric = math.Copysign(0, -1)
	}
	return &DecodeResponse{
		DecodeResponse: serve.DecodeResponse{
			APIVersion: serve.APIVersion, SymbolIndices: sym, Bits: []int{}, Metric: metric,
			NodesExplored: r.Int64N(1e6), Quality: randString(r), DegradedBy: randString(r),
			BatchSize: r.IntN(16), QueueWaitNS: r.Int64N(1e9), ServiceNS: r.Int64N(1e9),
			SimulatedNS: r.Int64N(1e6), Shed: r.IntN(2) == 0,
		},
		Shard: randString(r), Attempts: r.IntN(4), Hedged: r.IntN(2) == 0,
		FailedOver: r.IntN(2) == 0, Fallback: r.IntN(2) == 0,
	}
}

func encodingJSON(t *testing.T, v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnswerMatchesEncodingJSON holds the proxy's answer encoding to
// encoding/json's Encoder, byte for byte, on random single-frame answers and
// frames envelopes, failed frames included.
func TestAnswerMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 10000; i++ {
		resp := randResponse(r)
		got := append(append(resp.appendMembers([]byte{'{'}), '}'), '\n')
		if want := encodingJSON(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("single-frame answer\n got %s\nwant %s", got, want)
		}
	}
	for i := 0; i < 1000; i++ {
		results := make([]BatchDecodeResult, r.IntN(5))
		for k := range results {
			switch r.IntN(3) {
			case 0:
				results[k].Error = randString(r)
			case 1:
				results[k].DecodeResponse = randResponse(r)
			}
		}
		got := append(appendBatchAnswer(nil, results), '\n')
		want := encodingJSON(t, BatchDecodeResponse{APIVersion: serve.APIVersion, Results: results})
		if !bytes.Equal(got, want) {
			t.Fatalf("frames envelope\n got %s\nwant %s", got, want)
		}
	}
}
