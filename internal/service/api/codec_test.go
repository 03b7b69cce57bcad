package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// batchShape is one /batch of the cluster-batch workload's shape — 64 ops
// over random pairs of 2,000 objects: 32 bounds, 19 distifless at one
// threshold and 13 dist, shuffled — with a response of the same shape.
func batchShape() (BatchRequest, BatchResponse) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]BatchOp, 64)
	results := make([]BatchResult, len(ops))
	for k := range ops {
		i, j := rng.Intn(2000), rng.Intn(2000)
		d := WireFloat(rng.Float64())
		switch {
		case k < 32:
			lb := d * WireFloat(rng.Float64())
			ops[k] = BatchOp{Op: OpBounds, I: i, J: j}
			results[k] = BatchResult{LB: lb, UB: d + lb}
		case k < 51:
			ops[k] = BatchOp{Op: OpDistIfLess, I: i, J: j, C: 0.3183098861837907}
			results[k] = BatchResult{Less: d < ops[k].C, D: d, Exact: true}
		default:
			ops[k] = BatchOp{Op: OpDist, I: i, J: j}
			results[k] = BatchResult{D: d}
		}
	}
	rng.Shuffle(len(ops), func(a, b int) {
		ops[a], ops[b] = ops[b], ops[a]
		results[a], results[b] = results[b], results[a]
	})
	return BatchRequest{Ops: ops}, BatchResponse{Results: results}
}

// replShape is one replication append of n 20-byte records, the sender's
// default batch size being 512. The codec carries records without
// looking inside them, so random bytes stand in for them.
func replShape(n int) ReplAppendRequest {
	rng := rand.New(rand.NewSource(2))
	recs := make([]byte, n*20)
	rng.Read(recs)
	return ReplAppendRequest{
		Node:    "node-a",
		Meta:    ReplMeta{Scheme: "tri", Landmarks: 11, Seed: 7, Bootstrap: true, N: 2000},
		From:    123456,
		Records: recs,
	}
}

// The workload-shaped messages encode to encoding/json's bytes and parse
// back on the canonical path, not through the fallback. (BatchRequest has
// no encoder: encoding/json is its encoder and its own reference.)
func TestWireCodecCanonicalRoundTrip(t *testing.T) {
	req, resp := batchShape()
	repl := replShape(512)
	repl.Meta.SlackEps = WireFloat(math.Inf(1))
	for _, c := range []struct {
		name  string
		v     any
		ref   any
		parse func([]byte) (any, bool)
	}{
		{"BatchRequest", req, req, func(b []byte) (any, bool) {
			var v BatchRequest
			return v, parseBatchRequest(b, &v)
		}},
		{"BatchResponse", resp, batchResponseJSON(resp), func(b []byte) (any, bool) {
			var v BatchResponse
			return v, parseBatchResponse(b, &v)
		}},
		{"ReplAppendRequest", repl, replAppendRequestJSON(repl), func(b []byte) (any, bool) {
			var v ReplAppendRequest
			return v, parseReplAppendRequest(b, &v)
		}},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := json.Marshal(c.ref)
		if err != nil {
			t.Fatalf("%s reference: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s encodes as\n%s\nencoding/json as\n%s", c.name, got, want)
		}
		// The server's Encoder adds a newline, which the parsers accept.
		back, ok := c.parse(append(got, '\n'))
		if !ok || !reflect.DeepEqual(back, c.v) {
			t.Fatalf("%s: canonical parse = %v, value equal %v", c.name, ok, reflect.DeepEqual(back, c.v))
		}
	}
}

// fuzzData hands out fuzz bytes as message fields; past the end it reads
// zeros.
type fuzzData struct {
	b []byte
	// canonical stays true while every string drawn is plain ASCII, which
	// the parsers read without the fallback.
	canonical bool
}

func (d *fuzzData) byte() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// int draws a 16-bit value, its extremes standing for the int64 ones.
func (d *fuzzData) int() int64 {
	switch v := int16(uint16(d.byte())<<8 | uint16(d.byte())); v {
	case math.MaxInt16:
		return math.MaxInt64
	case math.MinInt16:
		return math.MinInt64
	default:
		return int64(v)
	}
}

// fuzzFloats are the WireFloat values at the edges of encoding/json's
// float formats.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	-1e-7, 123456789,
}

// float draws one of fuzzFloats, or any float64's bits.
func (d *fuzzData) float() WireFloat {
	if s := d.byte(); s < 64 {
		return WireFloat(fuzzFloats[int(s)%len(fuzzFloats)])
	}
	var bits uint64
	for k := 0; k < 8; k++ {
		bits = bits<<8 | uint64(d.byte())
	}
	return WireFloat(math.Float64frombits(bits))
}

// fuzzStrings are op names, codes and strings encoding/json escapes.
var fuzzStrings = []string{
	OpDist, OpBounds, OpDistIfLess, CodeBadRequest, "", "node-a", "OP",
	`a"b`, `a\b`, "<&>", "é", "\x00", " ", "\xff",
}

func (d *fuzzData) str() string {
	s := fuzzStrings[int(d.byte())%len(fuzzStrings)]
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			d.canonical = false
		}
	}
	return s
}

func (d *fuzzData) bool() bool { return d.byte()&1 == 1 }

// count draws an element count of at most 8; a zero count also picks
// between a nil and an empty slice, neither of which is canonical.
func (d *fuzzData) count() (n int, isNil bool) {
	n = int(d.byte() % 9)
	if n == 0 {
		d.canonical = false
		return 0, d.bool()
	}
	return n, false
}

func (d *fuzzData) batchRequest() BatchRequest {
	n, isNil := d.count()
	if isNil {
		return BatchRequest{}
	}
	ops := make([]BatchOp, n)
	for k := range ops {
		ops[k] = BatchOp{Op: d.str(), I: int(d.int()), J: int(d.int()), K: int(d.int()), L: int(d.int()), C: d.float()}
	}
	return BatchRequest{Ops: ops}
}

func (d *fuzzData) batchResponse() BatchResponse {
	n, isNil := d.count()
	if isNil {
		return BatchResponse{}
	}
	results := make([]BatchResult, n)
	for k := range results {
		results[k] = BatchResult{Less: d.bool(), D: d.float(), Exact: d.bool(), LB: d.float(), UB: d.float(), Eps: d.float()}
		if d.bool() {
			results[k].Err = d.str()
		}
	}
	return BatchResponse{Results: results}
}

func (d *fuzzData) replAppendRequest() ReplAppendRequest {
	r := ReplAppendRequest{
		Node: d.str(),
		Meta: ReplMeta{
			Scheme: d.str(), Landmarks: int(d.int()), Seed: d.int(), Bootstrap: d.bool(),
			SlackEps: d.float(), SlackRatio: d.float(), SlackAuto: d.bool(), Audit: d.bool(), N: int(d.int()),
		},
		From: d.int(),
	}
	// An empty batch omits "records", which is canonical. Any byte
	// count travels, whole records or not: the codec does not look
	// inside them.
	if n := int(d.byte() % 61); n > 0 {
		r.Records = make([]byte, n)
		for k := range r.Records {
			r.Records[k] = d.byte()
		}
	}
	return r
}

// sameErr reports whether two errors are both nil or carry one message.
func sameErr(a, b error) bool {
	return a == nil && b == nil || a != nil && b != nil && a.Error() == b.Error()
}

// strictJSON decodes data's first JSON value as the service did before
// the codec: encoding/json, unknown fields refused.
func strictJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzWireCodec holds the codec to encoding/json, its reference:
//   - WireFloat encodes a float64's bits as json.Marshal does (NaN with
//     the same error) and decodes them back exactly;
//   - each bulk message built from the fuzz bytes encodes to the bytes,
//     or fails with the error, that encoding/json gives the method-less
//     copy, and parses back on the canonical path when its strings are
//     plain and its arrays non-empty;
//   - sent as they are, the encoders' bytes are the ones encoding/json
//     writes for the message itself: a BatchResponse's, with a newline,
//     json.Encoder's (the node's writeJSON), and a ReplAppendRequest's
//     json.Marshal's (the replicator's append), both passes failing
//     together on a NaN;
//   - the fuzz bytes themselves, whenever a parser accepts them, decode
//     through encoding/json (strictly, for the two requests) to a
//     reflect.DeepEqual value; json.Unmarshal into a BatchResponse
//     decodes them, or fails, exactly as encoding/json alone does; and
//     so does its UnmarshalJSON called directly (proxclient's parse);
//   - api.ReadBody returns the bytes whole, whatever length is declared.
func FuzzWireCodec(f *testing.F) {
	for _, x := range fuzzFloats {
		f.Add(math.Float64bits(x), []byte{})
	}
	req, resp := batchShape()
	repl := replShape(4)
	for _, v := range []any{req, resp, repl} {
		b, _ := json.Marshal(v)
		f.Add(uint64(0), b)
	}
	f.Add(uint64(0), []byte(`{"ops":[{"op":"bounds","i":1,"j":2},{"op":"dist","i":3,"j":4,"c":"+Inf"}]}`+"\n"))
	f.Add(uint64(0), []byte(`{"results":[{},{"less":true,"d":0.5,"exact":true},{"err":"bad_request"}]}`))
	for _, records := range []string{
		`"AAAAAAEAAAAAAAAAAADgP7ln7hs="`, // one record, (0, 1) at 0.5
		`"AAAAAAEAAAAAAAAAAADgP7ln7h"`,   // no padding
		`"AAAAAAEAAAAAAAAAAADgP7ln7ht="`, // nonzero padding bits
		`"AAAAAAEAAAAAAAAAAADgP7ln7hs"`,  // cut padding
		`"AAAA\/+/+"`,                    // an escape
		`"AA\nAA"`,                       // an escaped newline, which base64 skips
		`""`, `null`, `[0,1,2]`, `[{"i":0,"j":1,"d":1e-7}]`,
	} {
		f.Add(uint64(0), []byte(`{"node":"a","meta":{"scheme":"tri","landmarks":3,"seed":7,"n":60},"from":0,"records":`+records+`}`))
	}
	f.Add(uint64(0), []byte(`{"ops":[{"op":"dist","i":1.0,"j":99999999999999999999}]}`))
	f.Fuzz(func(t *testing.T, bits uint64, data []byte) {
		x := math.Float64frombits(bits)
		got, gerr := WireFloat(x).MarshalJSON()
		want, werr := json.Marshal(x)
		switch {
		case math.IsInf(x, 1):
			want, werr = []byte(`"+Inf"`), nil
		case math.IsInf(x, -1):
			want, werr = []byte(`"-Inf"`), nil
		}
		if !bytes.Equal(got, want) || !sameErr(gerr, werr) {
			t.Fatalf("WireFloat(%x) = %s, %v; encoding/json %s, %v", bits, got, gerr, want, werr)
		}
		if gerr == nil {
			var back WireFloat
			if err := json.Unmarshal(got, &back); err != nil || math.Float64bits(float64(back)) != bits {
				t.Fatalf("WireFloat(%x) → %s → %x, %v", bits, got, math.Float64bits(float64(back)), err)
			}
		}

		d := &fuzzData{b: data, canonical: true}
		br := d.batchRequest()
		checkEncode(t, "BatchRequest", d, br, br, parseBatchRequest)
		resp := d.batchResponse()
		checkEncode(t, "BatchResponse", d, resp, batchResponseJSON(resp), parseBatchResponse)
		ar := d.replAppendRequest()
		checkEncode(t, "ReplAppendRequest", d, ar, replAppendRequestJSON(ar), parseReplAppendRequest)
		checkDirect(t, resp, true)
		checkDirect(t, ar, false)

		var pbr, bref BatchRequest
		if parseBatchRequest(data, &pbr) {
			if err := strictJSON(data, &bref); err != nil || !reflect.DeepEqual(pbr, bref) {
				t.Fatalf("BatchRequest %q: parsed %+v; encoding/json %+v, %v", data, pbr, bref, err)
			}
		}
		var presp, rref BatchResponse
		if parseBatchResponse(data, &presp) {
			if err := json.Unmarshal(data, (*batchResponseJSON)(&rref)); err != nil || !reflect.DeepEqual(presp, rref) {
				t.Fatalf("BatchResponse %q: parsed %+v; encoding/json %+v, %v", data, presp, rref, err)
			}
		}
		var par, aref ReplAppendRequest
		if parseReplAppendRequest(data, &par) {
			if err := strictJSON(data, &aref); err != nil || !reflect.DeepEqual(par, aref) {
				t.Fatalf("ReplAppendRequest %q: parsed %+v; encoding/json %+v, %v", data, par, aref, err)
			}
		}

		// Through json.Unmarshal, which hands UnmarshalJSON the value without
		// surrounding whitespace, as encoding/json alone decodes it.
		var pr, prref BatchResponse
		if err, ref := json.Unmarshal(data, &pr), json.Unmarshal(data, (*batchResponseJSON)(&prref)); !sameErr(err, ref) || !reflect.DeepEqual(pr, prref) {
			t.Fatalf("json.Unmarshal(%q) = %+v, %v; encoding/json %+v, %v", data, pr, err, prref, ref)
		}
		var direct, viaJSON BatchResponse
		if err, ref := direct.UnmarshalJSON(data), json.Unmarshal(data, &viaJSON); !sameErr(err, ref) || !reflect.DeepEqual(direct, viaJSON) {
			t.Fatalf("UnmarshalJSON(%q) = %+v, %v; json.Unmarshal %+v, %v", data, direct, err, viaJSON, ref)
		}
		for _, size := range []int64{-1, 0, int64(len(data)) / 2, int64(len(data)), int64(len(data)) + 1} {
			if got, err := ReadBody(bytes.NewReader(data), size); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("ReadBody(%q, %d) = %q, %v", data, size, got, err)
			}
		}
		p := parser{b: data}
		if w := p.number(); !p.bad && p.i == len(data) {
			var ref float64
			if err := json.Unmarshal(data, &ref); err != nil || math.Float64bits(float64(w)) != math.Float64bits(ref) {
				t.Fatalf("number %q = %v; encoding/json %v, %v", data, w, ref, err)
			}
		}
	})
}

// checkEncode holds v's MarshalJSON, when it has one, to encoding/json on
// ref, its method-less copy; and when d drew only canonical strings and
// non-empty arrays and v encodes, holds parse to reading the bytes back
// to v.
func checkEncode[T any](t *testing.T, name string, d *fuzzData, v T, ref any, parse func([]byte, *T) bool) {
	t.Helper()
	want, werr := json.Marshal(ref)
	if m, ok := any(v).(json.Marshaler); ok {
		if got, err := m.MarshalJSON(); !bytes.Equal(got, want) || !sameErr(err, werr) {
			t.Fatalf("%s %+v encodes as %s, %v; encoding/json %s, %v", name, v, got, err, want, werr)
		}
	}
	if werr != nil || !d.canonical {
		return
	}
	var back T
	if !parse(want, &back) || !reflect.DeepEqual(back, v) {
		t.Fatalf("%s %s: canonical parse refused it or read %+v", name, want, back)
	}
}

// checkDirect holds m's MarshalJSON output, sent as it is, to the bytes
// encoding/json writes for m, which run that output through their
// compaction pass: json.Encoder's, newline and all, when line is set, and
// json.Marshal's otherwise. Both fail together or give equal bytes.
func checkDirect(t *testing.T, m json.Marshaler, line bool) {
	t.Helper()
	got, err := m.MarshalJSON()
	var want []byte
	var werr error
	if line {
		var buf bytes.Buffer
		werr = json.NewEncoder(&buf).Encode(m)
		want = buf.Bytes()
		got = append(got, '\n')
	} else {
		want, werr = json.Marshal(m)
	}
	if (err == nil) != (werr == nil) || err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%T %+v sent directly: %s, %v; encoding/json %s, %v", m, m, got, err, want, werr)
	}
}

// BenchmarkWireCodec times each bulk message through the calls its
// endpoints make — a client's json.Marshal of a /batch, the node's
// DecodeStrict over a whole request body, the encoders' MarshalJSON sent
// as it is (the node's writeJSON, the replicator's append) and
// proxclient's direct UnmarshalJSON — at the workloads' shapes: a 64-op
// /batch with 32 bounds ops and its response, and a 512-record
// replication append. Each <encode|decode>-json line runs encoding/json
// on the method-less copy beside it, as the endpoints did before the
// codec.
func BenchmarkWireCodec(b *testing.B) {
	req, resp := batchShape()
	repl := replShape(512)
	marshal := func(v any) func([]byte) error {
		return func([]byte) error { _, err := json.Marshal(v); return err }
	}
	direct := func(m json.Marshaler) func([]byte) error {
		return func([]byte) error { _, err := m.MarshalJSON(); return err }
	}
	encode := func(v any) func([]byte) error {
		return func([]byte) error { return json.NewEncoder(io.Discard).Encode(v) }
	}
	for _, m := range []struct {
		name string
		v    any
		ops  [4]func(body []byte) error // encode, encode-json, decode, decode-json
	}{
		// BatchRequest has no encoder: encode is encoding/json's.
		{"BatchRequest", req, [4]func([]byte) error{
			marshal(req), nil,
			func(body []byte) error { var v BatchRequest; return DecodeStrict(body, &v) },
			func(body []byte) error { var v BatchRequest; return strictJSON(body, &v) },
		}},
		{"BatchResponse", resp, [4]func([]byte) error{
			direct(resp), encode(batchResponseJSON(resp)),
			func(body []byte) error { var v BatchResponse; return v.UnmarshalJSON(body) },
			func(body []byte) error { var v batchResponseJSON; return json.Unmarshal(body, &v) },
		}},
		{"ReplAppendRequest", repl, [4]func([]byte) error{
			direct(repl), marshal(replAppendRequestJSON(repl)),
			func(body []byte) error { var v ReplAppendRequest; return DecodeStrict(body, &v) },
			func(body []byte) error { var v replAppendRequestJSON; return strictJSON(body, &v) },
		}},
	} {
		body, err := json.Marshal(m.v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name, func(b *testing.B) {
			for k, name := range []string{"encode", "encode-json", "decode", "decode-json"} {
				op := m.ops[k]
				if op == nil {
					continue
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(int64(len(body)))
					for i := 0; i < b.N; i++ {
						if err := op(body); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
