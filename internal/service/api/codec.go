package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The bulk wire messages — BatchRequest, BatchResponse and
// ReplAppendRequest — carry hundreds of numbers each, and reflection
// dominated what encoding/json spent on them. This file reads all three
// and writes the two that carry a float per element directly, byte for
// byte in encoding/json's format; encoding/json stays the reference and
// the fallback (DESIGN.md §10).
//
// The encoders append the fields in declaration order under encoding/json's
// omitempty rule. A value encoding/json refuses (a NaN WireFloat) is handed
// to it, so the error is its own. BatchRequest has no encoder: json.Marshal
// re-scans every MarshalJSON result to compact it, and for a request with
// few floats that scan costs more than the reflection it would save.
//
// The parsers accept only the canonical form, which is what encoding/json
// writes for these types: the type's own lowercase keys in declaration
// order, no whitespace but one trailing newline, integer literals for
// integer fields, numbers or "+Inf"/"-Inf" for WireFloat fields, strings of
// ASCII without escapes or control bytes, non-empty arrays, and a
// zero-valued destination. Any other input is decoded by encoding/json
// over the same bytes, so every input decodes to the value, or fails with
// the error, that encoding/json alone gives it.

// Method-less copies of the messages with codec methods: encoding/json on
// these is the reference codec and the fallback.
type (
	batchResponseJSON     BatchResponse
	replAppendRequestJSON ReplAppendRequest
)

// Bytes to reserve per element when encoding: a batch result with two
// full-precision floats, or a replication record.
const (
	resultBytes = 56
	recordBytes = 48
)

// maxHint caps the elements a parser allocates before it has parsed them,
// so that no input, however many '{' it holds, buys a larger allocation.
const maxHint = 4096

// appendFloat appends f as encoding/json writes a float64 — shortest
// round-trip digits, exponent form outside [1e-6, 1e21) — and ±Inf as
// "+Inf"/"-Inf". ok is false for NaN, which has no encoding.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	switch {
	case math.IsNaN(f):
		return b, false
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...), true
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...), true
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-9, not e-09.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// encoder appends one message; ok turns false at a value encoding/json
// refuses.
type encoder struct {
	b  []byte
	ok bool
}

func newEncoder(size int) *encoder { return &encoder{b: make([]byte, 0, size), ok: true} }

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

// key appends an object key, after a comma unless it is the object's
// first.
func (e *encoder) key(k string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':')
}

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *encoder) float(f WireFloat) {
	var ok bool
	e.b, ok = appendFloat(e.b, float64(f))
	e.ok = e.ok && ok
}

// str appends s quoted: directly when it is printable ASCII that needs no
// escape, through encoding/json otherwise.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// array appends a JSON array of n elements written by elem, or null for a
// nil slice.
func (e *encoder) array(isNil bool, n int, elem func(k int)) {
	if isNil {
		e.raw("null")
		return
	}
	e.raw("[")
	for k := 0; k < n; k++ {
		if k > 0 {
			e.raw(",")
		}
		elem(k)
	}
	e.raw("]")
}

// MarshalJSON writes the response as encoding/json would, without
// reflection.
func (r BatchResponse) MarshalJSON() ([]byte, error) {
	e := newEncoder(16 + len(r.Results)*resultBytes)
	e.raw(`{"results":`)
	e.array(r.Results == nil, len(r.Results), func(k int) {
		res := &r.Results[k]
		e.raw("{")
		if res.Less {
			e.key("less")
			e.raw("true")
		}
		if res.D != 0 {
			e.key("d")
			e.float(res.D)
		}
		if res.Exact {
			e.key("exact")
			e.raw("true")
		}
		if res.LB != 0 {
			e.key("lb")
			e.float(res.LB)
		}
		if res.UB != 0 {
			e.key("ub")
			e.float(res.UB)
		}
		if res.Eps != 0 {
			e.key("eps")
			e.float(res.Eps)
		}
		if res.Err != "" {
			e.key("err")
			e.str(res.Err)
		}
		e.raw("}")
	})
	e.raw("}")
	if !e.ok {
		return json.Marshal(batchResponseJSON(r))
	}
	return e.b, nil
}

// MarshalJSON writes the request as encoding/json would, without
// reflection but for the small Meta object.
func (r ReplAppendRequest) MarshalJSON() ([]byte, error) {
	meta, err := json.Marshal(r.Meta)
	if err != nil {
		return json.Marshal(replAppendRequestJSON(r))
	}
	e := newEncoder(48 + len(r.Node) + len(meta) + len(r.Records)*recordBytes)
	e.raw(`{"node":`)
	e.str(r.Node)
	e.raw(`,"meta":`)
	e.b = append(e.b, meta...)
	e.raw(`,"from":`)
	e.int(r.From)
	if len(r.Records) > 0 {
		e.raw(`,"records":`)
		e.array(false, len(r.Records), func(k int) {
			rec := &r.Records[k]
			e.raw(`{"i":`)
			e.int(int64(rec.I))
			e.raw(`,"j":`)
			e.int(int64(rec.J))
			e.raw(`,"d":`)
			e.float(rec.D)
			e.raw("}")
		})
	}
	e.raw("}")
	if !e.ok {
		return json.Marshal(replAppendRequestJSON(r))
	}
	return e.b, nil
}

// UnmarshalJSON parses the canonical form directly and hands any other
// input to encoding/json, which decodes it as it would a BatchResponse
// without this method.
func (r *BatchResponse) UnmarshalJSON(data []byte) error {
	if parseBatchResponse(data, r) {
		return nil
	}
	return json.Unmarshal(data, (*batchResponseJSON)(r))
}

// DecodeStrict decodes data, one JSON value, into v as a json.Decoder
// with DisallowUnknownFields does. A *BatchRequest or *ReplAppendRequest
// in the canonical form is parsed without reflection.
func DecodeStrict(data []byte, v any) error {
	switch v := v.(type) {
	case *BatchRequest:
		if parseBatchRequest(data, v) {
			return nil
		}
	case *ReplAppendRequest:
		if parseReplAppendRequest(data, v) {
			return nil
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// parser reads one message in the canonical form. Its first departure
// from that form sets bad, after which every read fails and returns a
// zero value.
type parser struct {
	b   []byte
	i   int
	bad bool
}

func (p *parser) fail() {
	p.bad = true
	p.i = len(p.b)
}

// next consumes c if it comes next.
func (p *parser) next(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(c byte) {
	if !p.next(c) {
		p.fail()
	}
}

// lit consumes s if it comes next.
func (p *parser) lit(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// key consumes `"k":` if it comes next in the current object, with the
// comma before it unless it is the object's first key.
func (p *parser) key(k string) bool {
	i := p.i
	if i == 0 || i >= len(p.b) {
		return false
	}
	if p.b[i-1] != '{' {
		if p.b[i] != ',' {
			return false
		}
		i++
	}
	end := i + len(k) + 3
	if end > len(p.b) || p.b[i] != '"' || string(p.b[i+1:end-2]) != k || p.b[end-2] != '"' || p.b[end-1] != ':' {
		return false
	}
	p.i = end
	return true
}

// digits consumes a run of decimal digits and returns its length.
func (p *parser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// int reads an integer literal that fits a signed integer of the given
// bit size. A fraction or exponent after it is left for the caller's
// next read, which then fails: integer fields take integer literals only.
func (p *parser) int(bits int) int64 {
	neg := p.next('-')
	start := p.i
	n := p.digits()
	if n == 0 || n > 19 || n > 1 && p.b[start] == '0' {
		p.fail()
		return 0
	}
	var u uint64 // at most 19 digits: no overflow
	for _, c := range p.b[start:p.i] {
		u = u*10 + uint64(c-'0')
	}
	if limit := uint64(1) << (bits - 1); u > limit || u == limit && !neg {
		p.fail()
		return 0
	}
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// number reads a JSON number literal with strconv.ParseFloat, as
// encoding/json does for a float64.
func (p *parser) number() WireFloat {
	start := p.i
	p.next('-')
	if lead := p.i; p.digits() == 0 || p.b[lead] == '0' && p.i > lead+1 {
		p.fail()
		return 0
	}
	if p.next('.') && p.digits() == 0 {
		p.fail()
		return 0
	}
	if p.next('e') || p.next('E') {
		if !p.next('+') {
			p.next('-')
		}
		if p.digits() == 0 {
			p.fail()
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		p.fail()
		return 0
	}
	return WireFloat(f)
}

// float reads a WireFloat as the encoders write it: a number, or "+Inf"
// or "-Inf".
func (p *parser) float() WireFloat {
	switch {
	case p.lit(`"+Inf"`):
		return WireFloat(math.Inf(1))
	case p.lit(`"-Inf"`):
		return WireFloat(math.Inf(-1))
	}
	return p.number()
}

func (p *parser) bool() bool {
	if p.lit("true") {
		return true
	}
	if !p.lit("false") {
		p.fail()
	}
	return false
}

// str reads a string of ASCII without escapes or control bytes; the
// result aliases the input.
func (p *parser) str() []byte {
	if !p.next('"') {
		p.fail()
		return nil
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1]
		case c < 0x20 || c >= 0x80 || c == '\\':
			p.fail()
			return nil
		}
	}
	p.fail()
	return nil
}

// wireStrings are the strings a batch carries in every element: the op
// names and the error codes a result can hold.
var wireStrings = [...]string{OpDist, OpLess, OpLessThan, OpDistIfLess, OpBounds, CodeBadRequest, CodeOracleUnavailable, CodeInternal}

// text reads a string; one of wireStrings comes back as the constant,
// without an allocation.
func (p *parser) text() string {
	b := p.str()
	for _, s := range wireStrings {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// array reads a non-empty array, elem reading each element.
func (p *parser) array(elem func()) {
	p.expect('[')
	for !p.bad {
		elem()
		if !p.next(',') {
			break
		}
	}
	p.expect(']')
}

// end reports whether the message parsed and nothing follows it but one
// newline.
func (p *parser) end() bool {
	p.next('\n')
	return !p.bad && p.i == len(p.b)
}

// sizeHint is the capacity for an array of objects in data: its '{'
// count less the objects around the array, at most maxHint.
func sizeHint(data []byte, around int) int {
	return max(0, min(bytes.Count(data, []byte{'{'})-around, maxHint))
}

// parseBatchRequest parses a canonical BatchRequest into the zero-valued
// r, reporting false, with r untouched, for any other input.
func parseBatchRequest(data []byte, r *BatchRequest) bool {
	if r.Ops != nil {
		return false
	}
	p := parser{b: data}
	p.expect('{')
	if !p.key("ops") {
		return false
	}
	ops := make([]BatchOp, 0, sizeHint(data, 1))
	p.array(func() {
		var op BatchOp
		p.expect('{')
		if p.key("op") {
			op.Op = p.text()
		}
		if p.key("i") {
			op.I = int(p.int(strconv.IntSize))
		}
		if p.key("j") {
			op.J = int(p.int(strconv.IntSize))
		}
		if p.key("k") {
			op.K = int(p.int(strconv.IntSize))
		}
		if p.key("l") {
			op.L = int(p.int(strconv.IntSize))
		}
		if p.key("c") {
			op.C = p.float()
		}
		p.expect('}')
		ops = append(ops, op)
	})
	p.expect('}')
	if !p.end() {
		return false
	}
	r.Ops = ops
	return true
}

// parseBatchResponse parses a canonical BatchResponse into the
// zero-valued r, reporting false, with r untouched, for any other input.
func parseBatchResponse(data []byte, r *BatchResponse) bool {
	if r.Results != nil {
		return false
	}
	p := parser{b: data}
	p.expect('{')
	if !p.key("results") {
		return false
	}
	results := make([]BatchResult, 0, sizeHint(data, 1))
	p.array(func() {
		var res BatchResult
		p.expect('{')
		if p.key("less") {
			res.Less = p.bool()
		}
		if p.key("d") {
			res.D = p.float()
		}
		if p.key("exact") {
			res.Exact = p.bool()
		}
		if p.key("lb") {
			res.LB = p.float()
		}
		if p.key("ub") {
			res.UB = p.float()
		}
		if p.key("eps") {
			res.Eps = p.float()
		}
		if p.key("err") {
			res.Err = p.text()
		}
		p.expect('}')
		results = append(results, res)
	})
	p.expect('}')
	if !p.end() {
		return false
	}
	r.Results = results
	return true
}

// parseReplAppendRequest parses a canonical ReplAppendRequest into the
// zero-valued r, reporting false, with r untouched, for any other input.
func parseReplAppendRequest(data []byte, r *ReplAppendRequest) bool {
	if r.Node != "" || r.Meta != (ReplMeta{}) || r.From != 0 || r.Records != nil {
		return false
	}
	p := parser{b: data}
	var out ReplAppendRequest
	p.expect('{')
	if p.key("node") {
		out.Node = string(p.str())
	}
	if p.key("meta") {
		out.Meta = p.meta()
	}
	if p.key("from") {
		out.From = p.int(64)
	}
	if p.key("records") {
		out.Records = make([]ReplRecord, 0, sizeHint(data, 2))
		p.array(func() {
			var rec ReplRecord
			p.expect('{')
			if p.key("i") {
				rec.I = int(p.int(strconv.IntSize))
			}
			if p.key("j") {
				rec.J = int(p.int(strconv.IntSize))
			}
			if p.key("d") {
				rec.D = p.float()
			}
			p.expect('}')
			out.Records = append(out.Records, rec)
		})
	}
	p.expect('}')
	if !p.end() {
		return false
	}
	*r = out
	return true
}

// meta reads a ReplMeta object.
func (p *parser) meta() (m ReplMeta) {
	p.expect('{')
	if p.key("scheme") {
		m.Scheme = string(p.str())
	}
	if p.key("landmarks") {
		m.Landmarks = int(p.int(strconv.IntSize))
	}
	if p.key("seed") {
		m.Seed = p.int(64)
	}
	if p.key("bootstrap") {
		m.Bootstrap = p.bool()
	}
	if p.key("slack_eps") {
		m.SlackEps = p.float()
	}
	if p.key("slack_ratio") {
		m.SlackRatio = p.float()
	}
	if p.key("slack_auto") {
		m.SlackAuto = p.bool()
	}
	if p.key("audit") {
		m.Audit = p.bool()
	}
	if p.key("n") {
		m.N = int(p.int(strconv.IntSize))
	}
	p.expect('}')
	return m
}
