package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"testing"
)

// trickyPieces are the fragments random answer strings are built from:
// everything encoding/json escapes, and plain text between.
var trickyPieces = []string{
	"exact", "linear", "cluster", "batch element 3: ", " ", "é", "日本", "🙂",
	`"`, `\`, "<", ">", "&", "/", "\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"\u2028", "\u2029", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80",
}

func randString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.IntN(6); n > 0; n-- {
		b.WriteString(trickyPieces[r.IntN(len(trickyPieces))])
	}
	return b.String()
}

// randFloat draws finite float64s from every binade, around encoding/json's
// 1e-6 and 1e21 format switches, and at the signed zeros.
func randFloat(r *rand.Rand) float64 {
	switch r.IntN(5) {
	case 0:
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 1:
		edge := []float64{1e-6, 1e21, 1e-7, 1e20}[r.IntN(4)]
		return edge * (1 + (r.Float64()-0.5)*1e-3)
	case 2:
		return []float64{0, math.Copysign(0, -1), 1e-6, 1e21, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0)}[r.IntN(6)]
	default:
		return r.NormFloat64() * math.Pow(10, float64(r.IntN(12)-6))
	}
}

func randInts(r *rand.Rand) []int {
	switch r.IntN(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	v := make([]int, r.IntN(9))
	for i := range v {
		v[i] = int(r.Int64()) >> r.IntN(64)
	}
	return v
}

func randDecodeResponse(r *rand.Rand) *DecodeResponse {
	resp := &DecodeResponse{
		APIVersion:    APIVersion,
		SymbolIndices: randInts(r),
		Bits:          randInts(r),
		Metric:        randFloat(r),
		NodesExplored: r.Int64() - r.Int64(),
		Quality:       randString(r),
		BatchSize:     r.IntN(64),
		QueueWaitNS:   r.Int64N(1e9),
		ServiceNS:     r.Int64N(1e9),
		SimulatedNS:   -r.Int64N(10),
		Shed:          r.IntN(2) == 0,
	}
	if r.IntN(2) == 0 {
		resp.APIVersion = randString(r)
	}
	if r.IntN(2) == 0 {
		resp.DegradedBy = randString(r)
	}
	return resp
}

// encodingJSON is what writeJSON sends for v.
func encodingJSON(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendDecodeResponseMatchesEncodingJSON holds the answer encoder to
// encoding/json's Encoder, byte for byte, on random single-frame answers and
// frames envelopes, failed frames included.
func TestAppendDecodeResponseMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 20000; i++ {
		resp := randDecodeResponse(r)
		got := append(append(AppendDecodeResponse([]byte{'{'}, resp), '}'), '\n')
		if want := encodingJSON(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("single-frame answer\n got %s\nwant %s", got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		results := make([]BatchDecodeResult, r.IntN(5))
		for k := range results {
			switch r.IntN(4) {
			case 0:
				results[k].Error = randString(r)
			case 1: // neither set
			case 2: // both set, which the handler never sends
				results[k] = BatchDecodeResult{DecodeResponse: randDecodeResponse(r), Error: randString(r)}
			default:
				results[k].DecodeResponse = randDecodeResponse(r)
			}
		}
		got := append(appendBatchAnswer(nil, results), '\n')
		want := encodingJSON(t, BatchDecodeResponse{APIVersion: APIVersion, Results: results})
		if !bytes.Equal(got, want) {
			t.Fatalf("frames envelope\n got %s\nwant %s", got, want)
		}
	}
}

// TestAppendStringEscapes pins the escapes encoding/json's Encoder writes.
func TestAppendStringEscapes(t *testing.T) {
	for in, want := range map[string]string{
		"plain":          `"plain"`,
		`a"b\c`:          `"a\"b\\c"`,
		"<a href=x>&amp": `"\u003ca href=x\u003e\u0026amp"`,
		"\x00\x1f\x7f":   `"\u0000\u001f` + "\x7f" + `"`,
		"\b\f\n\r\t":     `"\b\f\n\r\t"`,
		"a\u2028b\u2029": `"a\u2028b\u2029"`,
		"\xffé\xc3":      `"\ufffdé\ufffd"`,
	} {
		if got := string(AppendString(nil, in)); got != want {
			t.Errorf("AppendString(%q) = %s, want %s", in, got, want)
		}
	}
}

// TestAppendDecodeResponseNonFinite: encoding/json refuses a non-finite
// metric (writeJSON would send an empty body); the appender writes null.
func TestAppendDecodeResponseNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		body := append(AppendDecodeResponse([]byte{'{'}, &DecodeResponse{Metric: f}), '}')
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("metric %v: %s is not JSON: %v", f, body, err)
		}
		if out["metric"] != nil {
			t.Fatalf("metric %v encoded as %v, want null", f, out["metric"])
		}
	}
}

// servedEnvelope is a 32-frame answer as the handler builds it for the
// 4x4 4-QAM test configuration.
func servedEnvelope() []BatchDecodeResult {
	r := rand.New(rand.NewPCG(5, 6))
	results := make([]BatchDecodeResult, 32)
	for i := range results {
		sym := make([]int, testMIMO.Tx)
		bits := make([]int, 0, 2*len(sym))
		for k := range sym {
			sym[k] = r.IntN(4)
			bits = append(bits, sym[k]>>1, sym[k]&1)
		}
		results[i].DecodeResponse = &DecodeResponse{
			APIVersion: APIVersion, SymbolIndices: sym, Bits: bits,
			Metric: r.ExpFloat64(), NodesExplored: 5, Quality: "exact", BatchSize: 16,
			QueueWaitNS: r.Int64N(1e6), ServiceNS: r.Int64N(1e6), SimulatedNS: r.Int64N(1e5),
		}
	}
	return results
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestEncodeResponseAllocs pins the answer path's allocations: encoding a
// 32-frame envelope into the pooled buffer and writing it allocates nothing
// per frame, so the per-request closures are all it costs.
func TestEncodeResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	results := servedEnvelope()
	w := discardWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(100, func() {
		WriteAnswer(w, func(dst []byte) []byte { return appendBatchAnswer(dst, results) })
	})
	if per := allocs / float64(len(results)); per > 0.1 {
		t.Fatalf("%.0f allocations per envelope (%.2f per frame), want under 0.1 per frame", allocs, per)
	}
}

// BenchmarkEncodeResponse prices one 32-frame envelope answer through the
// appender and, as a sibling in the same run, through the encoding/json
// Encoder it replaced.
func BenchmarkEncodeResponse(b *testing.B) {
	results := servedEnvelope()
	w := discardWriter{h: http.Header{}}
	run := func(b *testing.B, encode func()) {
		for i := 0; i < b.N; i++ {
			encode()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(results)), "ns/frame")
	}
	b.Run("appender", func(b *testing.B) {
		b.ReportAllocs()
		run(b, func() {
			WriteAnswer(w, func(dst []byte) []byte { return appendBatchAnswer(dst, results) })
		})
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		run(b, func() {
			writeJSON(w, http.StatusOK, BatchDecodeResponse{APIVersion: APIVersion, Results: results})
		})
	})
}
