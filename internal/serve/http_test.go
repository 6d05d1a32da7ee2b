package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// wireRequest converts a test input into the JSON wire form.
func wireRequest(t *testing.T, n int, seed uint64) []byte {
	t.Helper()
	body, err := json.Marshal(toWire(genInputs(t, n, seed)[n-1], ""))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func newTestServer(t *testing.T, cfg Config) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := newScheduler(t, cfg)
	srv := httptest.NewServer(NewHandler(s, testMIMO.Tx, testMIMO.Rx, "4-QAM"))
	t.Cleanup(srv.Close)
	return s, srv
}

func TestHTTPDecodeRoundTrip(t *testing.T) {
	s, srv := newTestServer(t, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	resp, err := http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(wireRequest(t, 1, 61)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out DecodeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.SymbolIndices) != testMIMO.Tx {
		t.Fatalf("got %d symbols, want %d", len(out.SymbolIndices), testMIMO.Tx)
	}
	if len(out.Bits) != testMIMO.Tx*2 { // 4-QAM: 2 bits/symbol
		t.Fatalf("got %d bits, want %d", len(out.Bits), testMIMO.Tx*2)
	}
	if out.Quality != "exact" {
		t.Fatalf("quality %q", out.Quality)
	}
	if out.BatchSize < 1 {
		t.Fatalf("batch size %d", out.BatchSize)
	}
	if st := s.Stats(); st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code string
	}{
		{"malformed json", "{nope", CodeBadRequest},
		{"empty body", "{}", CodeBadRequest},
		{"ragged matrix", `{"h":[[[1,0],[0,1]],[[1,0]]],"y":[[1,0],[0,1]],"noise_var":0.1}`, CodeBadRequest},
		{"bad noise var", strings.Replace(string(wireRequest(t, 1, 67)), `"noise_var":`, `"noise_var":-`, 1), CodeInvalidInput},
		{"zero-column matrix", zeroColumnBodies[0], CodeBadRequest},
		{"zero-column matrix in frames", zeroColumnBodies[1], CodeBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/v1/decode", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || eb.Code != c.code {
			t.Errorf("%s: status %d, code %q (%v), want 400 %q", c.name, resp.StatusCode, eb.Code, err, c.code)
		}
	}
}

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHTTPOversizedBody checks that a body past MaxDecodeBody is refused
// with 413 bad_request even when the overrun is only bytes after a valid
// frame, which the parser would otherwise ignore.
func TestHTTPOversizedBody(t *testing.T) {
	s := newScheduler(t, Config{})
	frame := wireRequest(t, 1, 68)
	body := io.MultiReader(bytes.NewReader(frame), io.LimitReader(spaces{}, MaxDecodeBody))
	rec := httptest.NewRecorder()
	NewHandler(s, testMIMO.Tx, testMIMO.Rx, "4-QAM").ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decode", body))
	var eb errorBody
	if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil || rec.Code != http.StatusRequestEntityTooLarge || eb.Code != CodeBadRequest {
		t.Fatalf("status %d, code %q (%v), want 413 %q", rec.Code, eb.Code, err, CodeBadRequest)
	}
	if n := s.Stats().Submitted; n != 0 {
		t.Fatalf("%d frames submitted from an oversized body", n)
	}
}

func TestHTTPConfigMetricsHealth(t *testing.T) {
	s, srv := newTestServer(t, Config{MaxBatch: 8, MaxWait: 2 * time.Millisecond, Policy: ShedToLinear})

	var info ConfigInfo
	resp, err := http.Get(srv.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.TxAntennas != testMIMO.Tx || info.RxAntennas != testMIMO.Rx || info.Modulation != "4-QAM" {
		t.Fatalf("config %+v", info)
	}
	if info.MaxBatch != 8 || info.Policy != "shed-to-linear" {
		t.Fatalf("config %+v", info)
	}

	// Decode one frame, then metrics must reflect it.
	resp, err = http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(wireRequest(t, 1, 71)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var st Stats
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Completed != 1 || st.Batches != 1 || st.QualityCounts["exact"] != 1 {
		t.Fatalf("metrics %+v", st)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	s.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(wireRequest(t, 1, 71)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decode after Close: %d, want 503", resp.StatusCode)
	}
}

func TestHTTPOverloadStatus(t *testing.T) {
	s, err := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1, QueueCap: 1, Policy: Reject},
		newSlowFactory(t, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(NewHandler(s, testMIMO.Tx, testMIMO.Rx, "4-QAM"))
	t.Cleanup(srv.Close)

	body := wireRequest(t, 1, 73)
	codes := make(chan int, 12)
	for i := 0; i < cap(codes); i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	got := map[int]int{}
	for i := 0; i < cap(codes); i++ {
		got[<-codes]++
	}
	if got[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429s under saturation: %v", got)
	}
	if got[http.StatusOK] == 0 {
		t.Fatalf("no successes under saturation: %v", got)
	}
}

// FuzzDecodeHandler posts fuzzed bodies to the /v1/decode handler and holds
// it to its HTTP contract: no panic; status 200, 400 or 413; every 4xx coded
// bad_request or invalid_input; every 200 a JSON answer with one result per
// submitted frame, as the encoding/json path counts them.
func FuzzDecodeHandler(f *testing.F) {
	for _, body := range decodeBodySeeds(f) {
		f.Add(body)
	}
	s := newScheduler(f, Config{MaxBatch: 16, MaxWait: 100 * time.Microsecond, Policy: Block})
	h := NewHandler(s, testMIMO.Tx, testMIMO.Rx, "4-QAM")
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decode", bytes.NewReader(body)))
		answer := rec.Body.Bytes()
		strict := func(v any) error {
			dec := json.NewDecoder(bytes.NewReader(answer))
			dec.DisallowUnknownFields()
			return dec.Decode(v)
		}
		switch rec.Code {
		case http.StatusOK:
			frames, _, batch, err := expectedDecodeBody(t, body)
			if err != nil {
				t.Fatalf("200 for a body the encoding/json path rejects (%v): %s", err, answer)
			}
			if !json.Valid(answer) {
				t.Fatalf("200 answer is not JSON: %q", answer)
			}
			if !batch {
				var out DecodeResponse
				if err := strict(&out); err != nil || out.Quality == "" {
					t.Fatalf("single-frame answer %s: %v", answer, err)
				}
				return
			}
			var out BatchDecodeResponse
			if err := strict(&out); err != nil || len(out.Results) != len(frames) {
				t.Fatalf("envelope of %d frames answered %s: %v", len(frames), answer, err)
			}
			for i, r := range out.Results {
				if (r.DecodeResponse == nil) == (r.Error == "") {
					t.Fatalf("result %d carries neither or both of an answer and an error: %s", i, answer)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var eb errorBody
			if err := strict(&eb); err != nil || (eb.Code != CodeBadRequest && eb.Code != CodeInvalidInput) {
				t.Fatalf("status %d answered %s: %v", rec.Code, answer, err)
			}
		default:
			t.Fatalf("status %d answered %s", rec.Code, answer)
		}
	})
}
