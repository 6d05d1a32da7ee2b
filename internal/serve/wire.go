package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/cmatrix"
	"repro/internal/core"
)

// This file is the /v1/decode ingest path shared by this package's handler
// and the cluster proxy: a single-pass parser from request bytes straight to
// core.BatchInput, and the single-frame encoder the proxy forwards with.
//
// The parser accepts exactly the bodies that encoding/json, with
// DisallowUnknownFields, decodes into a DecodeRequest that then passes the
// envelope and ToBatchInput checks, and yields the same values (FuzzDecodeBody
// holds it to that). Besides plain JSON this covers case-insensitive field
// names, null (the zero value: an empty array, a zero number, pair or frame,
// an empty label), [re, im] arrays of any length (missing entries zero,
// extras skipped), and bytes after the top-level value, which are ignored.
// A key that repeats in one object must be well-typed each time, and its last
// value is the field's value, as if the earlier ones were absent; for the
// bodies clients send, which repeat no key, that is encoding/json's result.

// maxNestingDepth is encoding/json's scanner limit on open arrays and objects.
const maxNestingDepth = 10000

// MaxDecodeBody caps a POST /v1/decode body in bytes, bytes after the
// top-level value included. A 32-frame 64x64 envelope written with 17
// significant digits per number is about 6 MB.
const MaxDecodeBody = 16 << 20

// maxPooledBody caps the request buffers returned to the pool, so one
// oversized request does not pin its buffer for the life of the process.
const maxPooledBody = 4 << 20

// DecodeBody is a parsed POST /v1/decode body: one decoder input and one
// resolved scenario label per frame (a frame without its own label carries
// the envelope's). Batch reports the frames envelope form, which is answered
// with a BatchDecodeResponse.
//
// Each frame's H and Y share one allocation of their own and never point into
// the request buffer, so a frame may outlive the body: a QR-cache entry keeps
// H alive.
type DecodeBody struct {
	Frames []core.BatchInput
	Labels []string
	Batch  bool

	buf bytes.Buffer
	p   parser
}

var bodyPool = sync.Pool{New: func() any { return new(DecodeBody) }}

// ReadDecodeBody reads r to EOF into a pooled buffer and parses it in one
// pass. Every error describes a malformed body; BodyErrorStatus gives its HTTP
// status. HTTP front ends cap r with http.MaxBytesReader at MaxDecodeBody.
// The caller hands the body back with Release once it no longer reads Frames
// or Labels.
func ReadDecodeBody(r io.Reader) (*DecodeBody, error) {
	b := bodyPool.Get().(*DecodeBody)
	b.buf.Reset()
	if _, err := b.buf.ReadFrom(r); err != nil {
		b.Release()
		return nil, fmt.Errorf("read request body: %w", err)
	}
	if err := b.parse(b.buf.Bytes()); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// BodyErrorStatus is the HTTP status for a ReadDecodeBody error: 413 when the
// body overran its http.MaxBytesReader cap, 400 otherwise. Both are answered
// with CodeBadRequest.
func BodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Release returns b to the pool. The frames it handed out stay valid.
func (b *DecodeBody) Release() {
	if b.buf.Cap() > maxPooledBody {
		return
	}
	clear(b.Frames)
	clear(b.Labels)
	b.Frames, b.Labels = b.Frames[:0], b.Labels[:0]
	bodyPool.Put(b)
}

// parse fills Frames, Labels and Batch from data, applying the envelope
// checks: the frames form may not mix in single-frame fields, and no frame
// may nest a frames array of its own.
func (b *DecodeBody) parse(data []byte) error {
	b.Frames, b.Labels, b.Batch = b.Frames[:0], b.Labels[:0], false
	if err := b.p.parse(data); err != nil {
		return err
	}
	root := &b.p.root
	if len(root.frames) == 0 {
		in, err := root.input()
		if err != nil {
			return err
		}
		b.Frames, b.Labels = append(b.Frames, in), append(b.Labels, root.scenario)
		return nil
	}
	if len(root.h) > 0 || len(root.y) > 0 || root.noiseVar != 0 {
		return errors.New("request mixes single-frame fields (h/y/noise_var) with the batch form (frames)")
	}
	b.Batch = true
	for i := range root.frames {
		f := &root.frames[i]
		if len(f.frames) > 0 {
			return fmt.Errorf("frames[%d] nests a frames array", i)
		}
		in, err := f.input()
		if err != nil {
			return fmt.Errorf("frames[%d]: %w", i, err)
		}
		label := f.scenario
		if label == "" {
			label = root.scenario
		}
		b.Frames, b.Labels = append(b.Frames, in), append(b.Labels, label)
	}
	return nil
}

// batchInput builds one frame's decoder input from its wire rows, rejecting
// shapes the decoder cannot index. H and Y share one allocation.
func batchInput(rows int, row func(int) [][2]float64, y [][2]float64, noiseVar float64) (core.BatchInput, error) {
	if rows == 0 {
		return core.BatchInput{}, errors.New("empty channel matrix")
	}
	cols := len(row(0))
	if cols == 0 {
		return core.BatchInput{}, errors.New("channel matrix has no columns")
	}
	n := rows * cols
	data := make([]complex128, n+len(y))
	for i := 0; i < rows; i++ {
		r := row(i)
		if len(r) != cols {
			return core.BatchInput{}, fmt.Errorf("ragged channel matrix: row %d has %d entries, row 0 has %d", i, len(r), cols)
		}
		for j, e := range r {
			data[i*cols+j] = complex(e[0], e[1])
		}
	}
	for i, e := range y {
		data[n+i] = complex(e[0], e[1])
	}
	h := &cmatrix.Matrix{Rows: rows, Cols: cols, Data: data[:n:n]}
	return core.BatchInput{H: h, Y: cmatrix.Vector(data[n:]), NoiseVar: noiseVar}, nil
}

// elem extends s by one element and returns it. Within capacity the element
// still holds what the backing array last held there, so its buffers are
// reused and its decoder must overwrite all of it.
func elem[T any](s *[]T) *T {
	if n := len(*s); n < cap(*s) {
		*s = (*s)[:n+1]
	} else {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[len(*s)-1]
}

// wireFrame mirrors one decoded DecodeRequest.
type wireFrame struct {
	h        [][][2]float64
	y        [][2]float64
	noiseVar float64
	frames   []wireFrame
	scenario string
}

// reset zeroes f while keeping its buffers for reuse.
func (f *wireFrame) reset() {
	f.h, f.y, f.frames = f.h[:0], f.y[:0], f.frames[:0]
	f.noiseVar, f.scenario = 0, ""
}

func (f *wireFrame) input() (core.BatchInput, error) {
	return batchInput(len(f.h), func(i int) [][2]float64 { return f.h[i] }, f.y, f.noiseVar)
}

// parser scans one body into root. It keeps its buffers between bodies.
type parser struct {
	data  []byte
	pos   int
	depth int
	root  wireFrame
}

func (p *parser) parse(data []byte) error {
	p.data, p.pos, p.depth = data, 0, 0
	p.root.reset()
	if c := p.peek(); c != '{' {
		if c == 0 {
			return p.syntaxErr("unexpected end of body")
		}
		return p.syntaxErr("the body is not a JSON object")
	}
	// Bytes after the top-level object are left unread, as encoding/json's
	// Decoder leaves them.
	return p.frame(&p.root)
}

func (p *parser) syntaxErr(msg string) error {
	return fmt.Errorf("malformed request body: %s at offset %d", msg, p.pos)
}

func (p *parser) typeErr(field, want string) error {
	return fmt.Errorf("malformed request body: %s must be %s (offset %d)", field, want, p.pos)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (p *parser) peek() byte {
	data, i := p.data, p.pos
	for ; i < len(data); i++ {
		switch c := data[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			p.pos = i
			return c
		}
	}
	p.pos = i
	return 0
}

// open consumes the '[' or '{' at pos and reports whether the container is
// empty, consuming its closing byte if so.
func (p *parser) open(closing byte) (empty bool, err error) {
	p.pos++
	if p.depth++; p.depth > maxNestingDepth {
		return false, p.syntaxErr("exceeded max depth")
	}
	if p.peek() == closing {
		p.pos++
		p.depth--
		return true, nil
	}
	return false, nil
}

// next consumes the separator after a container element: true after ',',
// false after the closing byte.
func (p *parser) next(closing byte) (bool, error) {
	switch p.peek() {
	case ',':
		p.pos++
		return true, nil
	case closing:
		p.pos++
		p.depth--
		return false, nil
	}
	return false, p.syntaxErr("expected ',' or '" + string(closing) + "'")
}

// Field names of DecodeRequest's JSON tags.
var (
	fieldH        = []byte("h")
	fieldY        = []byte("y")
	fieldNoiseVar = []byte("noise_var")
	fieldFrames   = []byte("frames")
	fieldScenario = []byte("scenario")
)

// frame decodes the object at pos into f field by field; fields not named
// keep their values.
func (p *parser) frame(f *wireFrame) error {
	empty, err := p.open('}')
	if empty || err != nil {
		return err
	}
	for {
		key, err := p.key()
		if err != nil {
			return err
		}
		// encoding/json matches a key that names no field exactly by
		// Unicode simple case folding, which EqualFold implements.
		switch {
		case bytes.EqualFold(key, fieldH):
			err = array(p, &f.h, "h", "an array of rows",
				func(row *[][2]float64) error { return p.pairs(row, "h") })
		case bytes.EqualFold(key, fieldY):
			err = p.pairs(&f.y, "y")
		case bytes.EqualFold(key, fieldNoiseVar):
			err = p.number(&f.noiseVar, "noise_var")
		case bytes.EqualFold(key, fieldFrames):
			err = array(p, &f.frames, "frames", "an array of objects", p.frameElem)
		case bytes.EqualFold(key, fieldScenario):
			err = p.scenario(&f.scenario)
		default:
			return fmt.Errorf("malformed request body: unknown field %q", key)
		}
		if err != nil {
			return err
		}
		if more, err := p.next('}'); !more || err != nil {
			return err
		}
	}
}

// key scans an object key and the ':' after it, returning the key's decoded
// bytes (a view of the body unless the key needed unescaping).
func (p *parser) key() ([]byte, error) {
	if p.peek() != '"' {
		return nil, p.syntaxErr("expected a string key")
	}
	raw, plain, err := p.str()
	if err != nil {
		return nil, err
	}
	if p.peek() != ':' {
		return nil, p.syntaxErr("expected ':' after object key")
	}
	p.pos++
	if plain {
		return raw[1 : len(raw)-1], nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("malformed request body: %w", err)
	}
	return []byte(s), nil
}

// str scans the string token at pos (quotes included), validating escapes
// and control bytes. plain reports a token of printable ASCII without
// escapes, whose content needs no decoding.
func (p *parser) str() (raw []byte, plain bool, err error) {
	start := p.pos
	plain = true
	for p.pos++; p.pos < len(p.data); p.pos++ {
		switch c := p.data[p.pos]; {
		case c == '"':
			p.pos++
			return p.data[start:p.pos], plain, nil
		case c < 0x20:
			return nil, false, p.syntaxErr("control character in string")
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			p.pos++
			if p.pos >= len(p.data) {
				break
			}
			switch p.data[p.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if p.pos+4 >= len(p.data) {
					return nil, false, p.syntaxErr("unexpected end of body in string escape")
				}
				for _, h := range p.data[p.pos+1 : p.pos+5] {
					if !isHex(h) {
						return nil, false, p.syntaxErr("invalid \\u escape")
					}
				}
				p.pos += 4
			default:
				return nil, false, p.syntaxErr("invalid escape in string")
			}
		}
	}
	return nil, false, p.syntaxErr("unexpected end of body in string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// literal consumes the literal word at pos.
func (p *parser) literal(word string) error {
	if !bytes.HasPrefix(p.data[p.pos:], []byte(word)) {
		return p.syntaxErr("invalid literal")
	}
	p.pos += len(word)
	return nil
}

// num scans and converts the JSON number at pos; out-of-range numbers are
// left to the caller.
func (p *parser) num() (float64, numVerdict, error) {
	v, n, verdict := scanNumber(p.data[p.pos:])
	p.pos += n
	if verdict == numInvalid {
		return 0, verdict, p.syntaxErr("invalid number")
	}
	return v, verdict, nil
}

// number decodes a float64 field; null is 0.
func (p *parser) number(dst *float64, field string) error {
	switch c := p.peek(); {
	case c == 'n':
		*dst = 0
		return p.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return p.typeErr(field, "a number")
	}
	start := p.pos
	v, verdict, err := p.num()
	if err != nil {
		return err
	}
	if verdict == numOutOfRange {
		return fmt.Errorf("malformed request body: %s: number %s out of range", field, p.data[start:p.pos])
	}
	*dst = v
	return nil
}

// scenario decodes a string field; null is "".
func (p *parser) scenario(dst *string) error {
	switch p.peek() {
	case 'n':
		*dst = ""
		return p.literal("null")
	case '"':
	default:
		return p.typeErr("scenario", "a string")
	}
	raw, plain, err := p.str()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(raw[1 : len(raw)-1])
		return nil
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

// pair decodes one [re, im] entry; null is [0, 0].
func (p *parser) pair(dst *[2]float64, field string) error {
	switch p.peek() {
	case 'n':
		*dst = [2]float64{}
		return p.literal("null")
	case '[':
	default:
		return p.typeErr(field, "[re, im] entries")
	}
	k := 0
	empty, err := p.open(']')
	for more := !empty; more && err == nil; more, err = p.next(']') {
		if k < 2 {
			err = p.number(&dst[k], field)
		} else {
			err = p.skip()
		}
		k++
		if err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	for ; k < 2; k++ {
		dst[k] = 0
	}
	return nil
}

// array decodes the array at pos into dst, replacing its elements, each
// with decode; null empties dst, as [] does.
func array[T any](p *parser, dst *[]T, field, want string, decode func(*T) error) error {
	*dst = (*dst)[:0]
	switch p.peek() {
	case 'n':
		return p.literal("null")
	case '[':
	default:
		return p.typeErr(field, want)
	}
	empty, err := p.open(']')
	for more := !empty; more && err == nil; more, err = p.next(']') {
		if err = decode(elem(dst)); err != nil {
			return err
		}
	}
	return err
}

// pairs decodes an array of [re, im] entries.
func (p *parser) pairs(dst *[][2]float64, field string) error {
	return array(p, dst, field, "an array", func(e *[2]float64) error { return p.pair(e, field) })
}

// frameElem decodes one frames element; null is an empty frame.
func (p *parser) frameElem(f *wireFrame) error {
	f.reset()
	switch p.peek() {
	case 'n':
		return p.literal("null")
	case '{':
		return p.frame(f)
	}
	return p.typeErr("frames", "an array of objects")
}

// skip validates and consumes one value of any type.
func (p *parser) skip() error {
	switch c := p.peek(); {
	case c == '{':
		empty, err := p.open('}')
		for more := !empty; more && err == nil; more, err = p.next('}') {
			if _, err = p.key(); err != nil {
				return err
			}
			if err = p.skip(); err != nil {
				return err
			}
		}
		return err
	case c == '[':
		empty, err := p.open(']')
		for more := !empty; more && err == nil; more, err = p.next(']') {
			if err = p.skip(); err != nil {
				return err
			}
		}
		return err
	case c == '"':
		_, _, err := p.str()
		return err
	case c == 'n':
		return p.literal("null")
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := p.num() // encoding/json skips a value without converting it
		return err
	case c == 0:
		return p.syntaxErr("unexpected end of body")
	}
	return p.syntaxErr("invalid character")
}

// AppendFrame appends in as a single-frame /v1/decode body labelled scenario
// (omitted when empty). Numbers use the shortest formatting that parses back
// to the same float64, so the receiver decodes in bit for bit. in must hold
// finite values.
func AppendFrame(dst []byte, in core.BatchInput, scenario string) []byte {
	dst = append(dst, `{"h":[`...)
	for i := 0; i < in.H.Rows; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendComplex(dst, in.H.Row(i))
	}
	dst = append(dst, `],"y":`...)
	dst = appendComplex(dst, in.Y)
	dst = append(dst, `,"noise_var":`...)
	dst = strconv.AppendFloat(dst, in.NoiseVar, 'g', -1, 64)
	if scenario != "" {
		dst = append(dst, `,"scenario":`...)
		dst = AppendString(dst, scenario)
	}
	return append(dst, '}')
}

// appendComplex appends v as an array of [re, im] pairs.
func appendComplex(dst []byte, v []complex128) []byte {
	dst = append(dst, '[')
	for i, c := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = strconv.AppendFloat(dst, real(c), 'g', -1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, imag(c), 'g', -1, 64)
		dst = append(dst, ']')
	}
	return append(dst, ']')
}
