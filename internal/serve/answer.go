package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file encodes /v1/decode answers for both HTTP front ends (this
// package's handler and the cluster proxy's). It appends into a pooled buffer
// the bytes encoding/json's Encoder writes for the same values: members in
// field order, omitempty members left out, numbers formatted as encoding/json
// formats them, strings escaped HTML-safe, and a trailing newline.

// maxPooledAnswer caps the answer buffers returned to the pool.
const maxPooledAnswer = 1 << 20

var answerPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteAnswer answers 200 with the JSON body appendBody appends to an empty
// pooled buffer, followed by a newline.
func WriteAnswer(w http.ResponseWriter, appendBody func(dst []byte) []byte) {
	bp := answerPool.Get().(*[]byte)
	b := append(appendBody((*bp)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledAnswer {
		*bp = b
		answerPool.Put(bp)
	}
}

// AppendDecodeResponse appends the members of r's JSON object, without the
// enclosing braces, so a front end may append members of its own before
// closing it. A non-finite metric, which encoding/json refuses to encode,
// is written as null.
func AppendDecodeResponse(dst []byte, r *DecodeResponse) []byte {
	dst = append(dst, `"api_version":`...)
	dst = AppendString(dst, r.APIVersion)
	dst = append(dst, `,"symbol_indices":`...)
	dst = appendInts(dst, r.SymbolIndices)
	dst = append(dst, `,"bits":`...)
	dst = appendInts(dst, r.Bits)
	dst = append(dst, `,"metric":`...)
	dst = appendFloat(dst, r.Metric)
	dst = append(dst, `,"nodes_explored":`...)
	dst = strconv.AppendInt(dst, r.NodesExplored, 10)
	dst = append(dst, `,"quality":`...)
	dst = AppendString(dst, r.Quality)
	if r.DegradedBy != "" {
		dst = append(dst, `,"degraded_by":`...)
		dst = AppendString(dst, r.DegradedBy)
	}
	dst = append(dst, `,"batch_size":`...)
	dst = strconv.AppendInt(dst, int64(r.BatchSize), 10)
	dst = append(dst, `,"queue_wait_ns":`...)
	dst = strconv.AppendInt(dst, r.QueueWaitNS, 10)
	dst = append(dst, `,"service_ns":`...)
	dst = strconv.AppendInt(dst, r.ServiceNS, 10)
	dst = append(dst, `,"simulated_ns":`...)
	dst = strconv.AppendInt(dst, r.SimulatedNS, 10)
	if r.Shed {
		dst = append(dst, `,"shed":true`...)
	}
	return dst
}

// AppendBatchResponse appends a frames-envelope answer (BatchDecodeResponse's
// shape) of n results. appendResult appends the members of result i: those of
// a single-frame answer, an "error" member (see AppendErrorMember), or both.
func AppendBatchResponse(dst []byte, n int, appendResult func(dst []byte, i int) []byte) []byte {
	dst = append(dst, `{"api_version":`...)
	dst = AppendString(dst, APIVersion)
	dst = append(dst, `,"results":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendResult(append(dst, '{'), i), '}')
	}
	return append(dst, "]}"...)
}

// AppendErrorMember appends a failed result's omitempty "error" member,
// after a comma when more is set (the object already has members).
func AppendErrorMember(dst []byte, msg string, more bool) []byte {
	if msg == "" {
		return dst
	}
	if more {
		dst = append(dst, ',')
	}
	return AppendString(append(dst, `"error":`...), msg)
}

// appendInts appends v as a JSON array; nil is null.
func appendInts(dst []byte, v []int) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// decimal that parses back to f, in exponent form below 1e-6 and from 1e21
// on, with a one-digit exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendString appends s as a JSON string, escaped as encoding/json escapes
// it: the short escapes, \u00XX for other control bytes and for <, > and &,
// \ufffd for each invalid UTF-8 byte, and \u2028 and \u2029 (line and
// paragraph separators).
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
