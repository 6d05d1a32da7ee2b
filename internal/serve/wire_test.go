package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// toWire converts a decoder input to the wire request form.
func toWire(in core.BatchInput, scenario string) DecodeRequest {
	req := DecodeRequest{NoiseVar: in.NoiseVar, Scenario: scenario, H: make([][][2]float64, in.H.Rows)}
	for i := range req.H {
		for _, v := range in.H.Row(i) {
			req.H[i] = append(req.H[i], [2]float64{real(v), imag(v)})
		}
	}
	for _, v := range in.Y {
		req.Y = append(req.Y, [2]float64{real(v), imag(v)})
	}
	return req
}

// envelopeBody is a frames envelope of n test frames, marshalled the way
// clients build one.
func envelopeBody(tb testing.TB, n int, seed uint64) []byte {
	tb.Helper()
	env := DecodeRequest{}
	for _, in := range genInputs(tb, n, seed) {
		env.Frames = append(env.Frames, toWire(in, ""))
	}
	body, err := json.Marshal(env)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// oracleRequest is the decode step the single-pass parser replaced:
// encoding/json with unknown fields rejected.
func oracleRequest(body []byte) (DecodeRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req DecodeRequest
	err := dec.Decode(&req)
	return req, err
}

// oracleDecodeBody is the decode path the single-pass parser replaced:
// oracleRequest, then the envelope checks and ToBatchInput.
func oracleDecodeBody(body []byte) (frames []core.BatchInput, labels []string, batch bool, err error) {
	req, err := oracleRequest(body)
	if err != nil {
		return nil, nil, false, err
	}
	return oracleFrames(&req)
}

func oracleFrames(req *DecodeRequest) (frames []core.BatchInput, labels []string, batch bool, err error) {
	if len(req.Frames) == 0 {
		in, err := req.ToBatchInput()
		if err != nil {
			return nil, nil, false, err
		}
		return []core.BatchInput{in}, []string{req.Scenario}, false, nil
	}
	if len(req.H) > 0 || len(req.Y) > 0 || req.NoiseVar != 0 {
		return nil, nil, false, errors.New("mixed form")
	}
	for i := range req.Frames {
		if len(req.Frames[i].Frames) > 0 {
			return nil, nil, false, errors.New("nested frames")
		}
		in, err := req.Frames[i].ToBatchInput()
		if err != nil {
			return nil, nil, false, err
		}
		label := req.Frames[i].Scenario
		if label == "" {
			label = req.Scenario
		}
		frames, labels = append(frames, in), append(labels, label)
	}
	return frames, labels, true, nil
}

// lastWins rewrites the first JSON value of body so that every object keeps
// only the last member for each field, keys matched as the parser matches
// them, and reports whether it dropped any member. Numbers keep their text.
func lastWins(body []byte) (out []byte, dropped bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var value func() ([]byte, error)
	value = func() ([]byte, error) {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case json.Delim:
			var elems [][]byte
			var fields []string
			for dec.More() {
				field := ""
				if t == '{' {
					k, err := dec.Token()
					if err != nil {
						return nil, err
					}
					field = fieldOf(k.(string))
					if i := slices.Index(fields, field); i >= 0 {
						fields, elems = slices.Delete(fields, i, i+1), slices.Delete(elems, i, i+1)
						dropped = true
					}
				}
				v, err := value()
				if err != nil {
					return nil, err
				}
				if t == '{' {
					k, _ := json.Marshal(field)
					v = append(append(k, ':'), v...)
				}
				fields, elems = append(fields, field), append(elems, v)
			}
			if _, err := dec.Token(); err != nil {
				return nil, err
			}
			wrap := "[]"
			if t == '{' {
				wrap = "{}"
			}
			return []byte(wrap[:1] + string(bytes.Join(elems, []byte(","))) + wrap[1:]), nil
		case json.Number:
			return []byte(t), nil
		}
		return json.Marshal(tok)
	}
	out, err = value()
	return out, dropped, err
}

// fieldOf names the DecodeRequest field key selects, or returns key when it
// selects none.
func fieldOf(key string) string {
	for _, f := range []string{"h", "y", "noise_var", "frames", "scenario"} {
		if strings.EqualFold(key, f) {
			return f
		}
	}
	return key
}

// expectedDecodeBody is what the parser must make of body: the result of the
// encoding/json path, except that a key repeated in one object keeps only its
// last value. encoding/json decodes a repeated key over the earlier value in
// place, so where the two differ the expectation is the encoding/json path on
// the lastWins rewrite, provided the original body passed its decode step
// (every repeated member must be well-typed).
func expectedDecodeBody(t *testing.T, body []byte) (frames []core.BatchInput, labels []string, batch bool, err error) {
	req, err := oracleRequest(body)
	if err != nil {
		return nil, nil, false, err
	}
	canon, dropped, err := lastWins(body)
	if err != nil {
		t.Fatalf("lastWins of a body encoding/json decodes: %v", err)
	}
	if dropped {
		if req, err = oracleRequest(canon); err != nil {
			t.Fatalf("encoding/json rejects the lastWins rewrite %s: %v", canon, err)
		}
	}
	return oracleFrames(&req)
}

// sameFrame reports the first difference between two inputs, comparing
// floats bit for bit so -0 and 0 differ.
func sameFrame(got, want core.BatchInput) error {
	if got.H.Rows != want.H.Rows || got.H.Cols != want.H.Cols {
		return fmt.Errorf("H is %dx%d, want %dx%d", got.H.Rows, got.H.Cols, want.H.Rows, want.H.Cols)
	}
	if err := sameComplex("H", got.H.Data, want.H.Data); err != nil {
		return err
	}
	if err := sameComplex("y", got.Y, want.Y); err != nil {
		return err
	}
	if math.Float64bits(got.NoiseVar) != math.Float64bits(want.NoiseVar) {
		return fmt.Errorf("noise_var %v, want %v", got.NoiseVar, want.NoiseVar)
	}
	return nil
}

func sameComplex(name string, got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d entries, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return fmt.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// checkDecodeBody holds the parser to expectedDecodeBody on one body, then
// round-trips every frame it accepted through the single-frame encoder.
func checkDecodeBody(t *testing.T, body []byte) {
	want, wantLabels, wantBatch, wantErr := expectedDecodeBody(t, body)
	var got DecodeBody
	err := got.parse(body)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("parser error %v, encoding/json path error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if got.Batch != wantBatch || len(got.Frames) != len(want) || len(got.Labels) != len(want) {
		t.Fatalf("parser gave %d frames (batch %v), encoding/json path %d (batch %v)",
			len(got.Frames), got.Batch, len(want), wantBatch)
	}
	for i := range want {
		if err := sameFrame(got.Frames[i], want[i]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Labels[i] != wantLabels[i] {
			t.Fatalf("frame %d: label %q, want %q", i, got.Labels[i], wantLabels[i])
		}
		enc := AppendFrame(nil, got.Frames[i], got.Labels[i])
		var back DecodeBody
		if err := back.parse(enc); err != nil {
			t.Fatalf("frame %d: encoded frame %s does not parse: %v", i, enc, err)
		}
		if back.Batch || len(back.Frames) != 1 {
			t.Fatalf("frame %d: encoded frame %s parsed as %d frames", i, enc, len(back.Frames))
		}
		if err := sameFrame(back.Frames[0], got.Frames[i]); err != nil {
			t.Fatalf("frame %d: encoder round trip: %v", i, err)
		}
		if back.Labels[0] != got.Labels[i] {
			t.Fatalf("frame %d: encoder round trip label %q, want %q", i, back.Labels[0], got.Labels[i])
		}
	}
}

// zeroColumnBodies once panicked the handler inside cmatrix.NewMatrix.
var zeroColumnBodies = []string{
	`{"h":[[]],"y":[[1,0]],"noise_var":1}`,
	`{"frames":[{"h":[[]],"y":[[1,0]],"noise_var":1}]}`,
}

// FuzzDecodeBody is a differential fuzzer: the single-pass parser must accept
// exactly the bodies the encoding/json path accepts and yield bit-identical
// frames and labels (with a repeated key taking its last value), and the
// single-frame encoder must round-trip them.
func FuzzDecodeBody(f *testing.F) {
	for _, body := range decodeBodySeeds(f) {
		f.Add(body)
	}
	f.Fuzz(checkDecodeBody)
}

// decodeBodySeeds is the seed corpus of the /v1/decode fuzzers.
func decodeBodySeeds(tb testing.TB) [][]byte {
	single := func(seed uint64) string {
		body, err := json.Marshal(toWire(genInputs(tb, 1, seed)[0], ""))
		if err != nil {
			tb.Fatal(err)
		}
		return string(body)
	}
	seeds := append([]string{
		// The TestHTTPBadRequests bodies.
		"{nope",
		"{}",
		`{"h":[[[1,0],[0,1]],[[1,0]]],"y":[[1,0],[0,1]],"noise_var":0.1}`,
		`{"h":[[[1,0]]],"y":[[1,0]],"noise_var":-0.1}`,
		// Accepted spellings beyond plain JSON.
		single(5),
		`{"h":[[[1,2]]],"y":[[3,4]],"noise_var":0.5,"scenario":"grid"} trailing`,
		`{"H":[[[1,2]]],"Y":[[3,4]],"NOISE_VAR":0.5,"Scenario":"aé\ud800b"}`,
		`{"h":[[[1,2]]],"y":[[3,4]],"noise_var":0.5,"ſcenario":"x\\\"y\u0000"}`,
		`{"h":[[[1,2,3,[{"k":"v"}]]]],"y":[[3],[]],"noise_var":-0,"scenario":null}`,
		`{"h":[[[1,2]],[[3,4]]],"h":[[[5,6]]],"h":[[null],null],"y":[[1,2],[3,4]],"y":[[5,6]],"y":[[null,7],null],"noise_var":1,"noise_var":null}`,
		`{"y":[[1,2]],"y":[],"y":[null],"h":[[[1e-320,-0]]],"noise_var":2.5e+2}`,
		`{"scenario":"env","frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1},{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1,"scenario":"own"}]}`,
		`{"frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1},{"h":[[[2,0]]]}],"frames":[{"noise_var":3},null]}`,
		`{"frames":[{"frames":[{}]}],"frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1}]}`,
		`{"frames":[],"h":[[[1,0]]],"y":[[1,0]],"noise_var":1}`,
		`{"y":[[1,2]],"y":[null],"h":[[[1,0]]],"noise_var":1,"scenario":"a","Scenario":null}`,
		`{"h":[[[1,0],[2,0]]],"H":[[[3,0]]],"y":[[1,0]],"noise_var":1}`,
		// Rejected: mixed form, nesting, unknown fields, types, range, syntax.
		`{"frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1}],"noise_var":1}`,
		`{"frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1,"frames":[{}]}]}`,
		`{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1,"extra":0}`,
		`{"h":"bad","h":[[[1,0]]],"y":[[1,0]],"noise_var":1}`,
		`{"h":[[[1,"0"]]],"y":[[1,0]],"noise_var":1}`,
		`{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1e400}`,
		`{"h":[[[01,0]]],"y":[[1,0]],"noise_var":1}`,
		`{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1,}`,
		` [] `,
		``,
	}, zeroColumnBodies...)
	var out [][]byte
	for _, s := range seeds {
		out = append(out, []byte(s))
	}
	return append(out, envelopeBody(tb, 32, 7))
}

// TestDecodeBodyAllocs pins the parser's allocations: each frame's one H+y
// buffer and its matrix header, with the body buffer and scratch pooled.
func TestDecodeBodyAllocs(t *testing.T) {
	if raceEnabled {
		// The race detector drops a fraction of sync.Pool puts, so the
		// pooled buffer is not reused reliably; the plain build enforces
		// the pin.
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const frames = 32
	body := envelopeBody(t, frames, 11)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		b, err := ReadDecodeBody(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	if per := allocs / frames; per > 2 {
		t.Fatalf("%.2f allocations per frame, want at most 2", per)
	}
}

// TestDecodeBodyConcurrent runs the pooled path from several goroutines on
// differently shaped bodies, and checks that frames handed out stay intact
// after their body is released and its buffer reused.
func TestDecodeBodyConcurrent(t *testing.T) {
	bodies := [][]byte{
		envelopeBody(t, 32, 21),
		envelopeBody(t, 3, 22),
		[]byte(`{"scenario":"grid","frames":[{"h":[[[1,2]]],"y":[[3,4]],"noise_var":1}]}`),
		[]byte(`{"h":[[[1,2],[3,4]]],"y":[[5,6]],"noise_var":0.25,"scenario":"solo"}`),
	}
	type parsed struct {
		frames []core.BatchInput
		labels []string
	}
	want := make([]parsed, len(bodies))
	for i, body := range bodies {
		frames, labels, _, err := oracleDecodeBody(body)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = parsed{frames, labels}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kept []parsed
			for it := 0; it < 50; it++ {
				k := (g + it) % len(bodies)
				b, err := ReadDecodeBody(bytes.NewReader(bodies[k]))
				if err != nil {
					t.Error(err)
					return
				}
				kept = append(kept, parsed{append([]core.BatchInput(nil), b.Frames...), append([]string(nil), b.Labels...)})
				b.Release()
			}
			for it, p := range kept {
				w := want[(g+it)%len(bodies)]
				for i := range w.frames {
					if err := sameFrame(p.frames[i], w.frames[i]); err != nil || p.labels[i] != w.labels[i] {
						t.Errorf("goroutine %d, body %d, frame %d: %v (label %q, want %q)", g, it, i, err, p.labels[i], w.labels[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkDecodeBody prices one 32-frame 4x4 envelope through the parser
// and, as a sibling in the same run, through the encoding/json path it
// replaced.
func BenchmarkDecodeBody(b *testing.B) {
	const frames = 32
	body := envelopeBody(b, frames, 13)
	run := func(b *testing.B, decode func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decode()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N * frames)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/frame")
	}
	b.Run("parser", func(b *testing.B) {
		r := bytes.NewReader(body)
		run(b, func() {
			r.Reset(body)
			d, err := ReadDecodeBody(r)
			if err != nil {
				b.Fatal(err)
			}
			d.Release()
		})
	})
	b.Run("encoding-json", func(b *testing.B) {
		run(b, func() {
			if _, _, _, err := oracleDecodeBody(body); err != nil {
				b.Fatal(err)
			}
		})
	})
}
