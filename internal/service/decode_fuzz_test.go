package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"metricprox/internal/cachestore"
	"metricprox/internal/service/api"
)

// decodeTwoPass is how the node decoded a bulk request body before it
// read bodies whole: a json.Decoder reads the first JSON value into a
// json.RawMessage, and api.DecodeStrict parses those bytes. FuzzDecodeBody
// holds decode to it.
func decodeTwoPass(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	return api.DecodeStrict(raw, v)
}

// errDropped stands for a client that went away mid-body.
var errDropped = errors.New("client went away")

// sameError reports whether two errors are both nil or carry one message.
func sameError(a, b error) bool {
	return a == nil && b == nil || a != nil && b != nil && a.Error() == b.Error()
}

// decodeSeeds are TestNonCanonicalBodiesAnswerAsBefore's bodies and the
// encoders' output for both bulk requests.
func decodeSeeds() [][]byte {
	batch := func(ops string) string { return `{"ops":[` + ops + `]}` }
	appendOf := func(records string) string {
		return `{"node":"a",` + replMeta + `,"from":0,"records":` + records + `}`
	}
	appendFrom := func(from string) string {
		return `{"node":"a",` + replMeta + `,"from":` + from + `,"records":` + recHalf + `}`
	}
	seeds := []string{
		`{ "ops" : [ { "op" : "dist" , "i" : 1 , "j" : 2 } ] }`,
		batch(`{"j":2,"i":1,"op":"dist"}`),
		batch(`{"OP":"bounds","i":1,"j":2}`),
		batch(`{"op":"bounds","i":1,"j":2}`),
		batch(`{"op":"dist","i":1,"j":2,"x":1}`),
		`null`,
		batch(`{"op":"dist","i":1.0,"j":2}`),
		batch(`{"op":"dist","i":1e2,"j":2}`),
		batch(`{"op":"dist","i":99999999999999999999,"j":2}`),
		batch(`{"op":"lessthan","i":1,"j":2,"c":"Inf"}`),
		batch(`{"op":"bounds","i":1,"j":2}`) + "xyz",
		`{"ops":[]}`,
		`{"ops":null}`,
		`{ "node" : "a" , ` + replMeta + ` , "from" : 0 , "records" : ` + recHalf + ` }`,
		`{"from":0,"records":` + recHalf + `,"node":"a",` + replMeta + `}`,
		`{"NODE":"a",` + replMeta + `,"from":0,"records":` + recHalf + `}`,
		`{"node":"a","meta":{"scheme":"\u0074ri","landmarks":3,"seed":1,"n":60},"from":0,"records":` + recHalf + `}`,
		`{"node":"a",` + replMeta + `,"from":0,"records":` + recHalf + `,"x":1}`,
		appendFrom(`1.0`),
		appendFrom(`1e2`),
		appendFrom(`99999999999999999999`),
		appendOf(recInf),
		appendOf(recHalf) + "xyz",
		appendOf(`""`),
		appendOf(`null`),
		appendOf(`"\u0041AAAAAEAAAAAAAAAAADgP7ln7hs="`),
		appendOf(`"AAAAAAEAAAAAAAAAAADgP7ln7hs"`),
		appendOf(`[{"i":0,"j":1,"d":0.5}]`),
		appendOf(`"AAAAAAEAAAAAAAAAAADgP7hn7hs="`),
		appendOf(`"AAAAAAEAAAAAAAAAAADgP7ln7g=="`),
		appendOf(`"AgAAAAIAAAAAAAAAAADgP6hx9Zw="`),
	}
	out := make([][]byte, 0, len(seeds)+4)
	for _, s := range seeds {
		out = append(out, []byte(s))
	}
	req, _ := json.Marshal(api.BatchRequest{Ops: matchOps(1)})
	repl, _ := api.ReplAppendRequest{
		Node: "a", Meta: api.ReplMeta{Scheme: "tri", Landmarks: 3, Seed: 1, N: testN}, From: 7,
		Records: rawRecords(cachestore.Record{I: 0, J: 1, Dist: 0.5}, cachestore.Record{I: 2, J: 5, Dist: math.Inf(1)}, cachestore.Record{I: 3, J: 4, Dist: 1e-7}),
	}.MarshalJSON()
	resp, _ := api.BatchResponse{Results: []api.BatchResult{{LB: 0.125, UB: 0.5}, {Less: true, D: 0.25, Exact: true}, {Err: api.CodeBadRequest}}}.MarshalJSON()
	return append(out, req, append(req, '\n'), repl, resp)
}

// FuzzDecodeBody holds the node's one-read decode to decodeTwoPass on
// arbitrary bytes, as a /batch and as a /v1/repl body: read whole, cut
// by a read error after a fuzzed number of bytes (a dropped client), and
// capped at that number by http.MaxBytesReader (the body cap). Each must
// decode to a reflect.DeepEqual value or fail with the same message. The
// bytes are also tried as a response: whenever they decode as a
// BatchResponse, writeJSON must write json.Encoder's bytes for it, with
// a Content-Length of their length.
func FuzzDecodeBody(f *testing.F) {
	for k, seed := range decodeSeeds() {
		f.Add(seed, uint32(k*7))
		if bytes.HasSuffix(seed, []byte("xyz")) {
			f.Add(seed, uint32(len(seed)-3)) // cut after a whole first value
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint32) {
		n := int64(cut) % int64(len(data)+1)
		bodies := []struct {
			name string
			body func() io.Reader
		}{
			{"whole", func() io.Reader { return bytes.NewReader(data) }},
			{"dropped", func() io.Reader { return io.MultiReader(bytes.NewReader(data[:n]), errReader{errDropped}) }},
			{"capped", func() io.Reader {
				return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(data)), n)
			}},
		}
		for _, dst := range []func() any{
			func() any { return new(api.BatchRequest) },
			func() any { return new(api.ReplAppendRequest) },
		} {
			for _, b := range bodies {
				got, want := dst(), dst()
				gerr := decode(&http.Request{Body: io.NopCloser(b.body()), ContentLength: int64(len(data))}, got)
				werr := decodeTwoPass(b.body(), want)
				if !sameError(gerr, werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %T body %q (cut %d): decode %+v, %v; two-pass %+v, %v", b.name, got, data, n, got, gerr, want, werr)
				}
			}
		}

		var resp api.BatchResponse
		if json.Unmarshal(data, &resp) != nil {
			return
		}
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(resp)
		rec := httptest.NewRecorder()
		writeJSON(rec, resp)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("writeJSON(%+v) = %q, json.Encoder %q", resp, rec.Body, want.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Fatalf("writeJSON(%+v): Content-Length %q for %d bytes", resp, cl, want.Len())
		}
	})
}

// writeJSON writes a BatchResponse as json.Encoder does, with a
// Content-Length, on FuzzWireCodec's edge values; a NaN, which
// encoding/json refuses, writes nothing and sets no length.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e-7, 123456789}
	var results []api.BatchResult
	for k, x := range edges {
		f := api.WireFloat(x)
		results = append(results, api.BatchResult{Less: k%2 == 0, D: f, Exact: k%3 == 0, LB: -f, UB: f, Eps: f})
	}
	cases := []api.BatchResponse{{}, {Results: []api.BatchResult{}}, {Results: []api.BatchResult{{Err: "<&>"}, {Err: "é "}, {Err: "\xff"}}}}
	for k := range results {
		cases = append(cases, api.BatchResponse{Results: results[k : k+1]})
	}
	for _, resp := range cases {
		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(resp)
		rec := httptest.NewRecorder()
		writeJSON(rec, resp)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("writeJSON(%+v) = %q, json.Encoder %q (%v)", resp, rec.Body, want.Bytes(), werr)
		}
		cl := rec.Header().Get("Content-Length")
		if werr != nil && cl != "" || werr == nil && cl != strconv.Itoa(want.Len()) {
			t.Fatalf("writeJSON(%+v): Content-Length %q for %d bytes (encode error %v)", resp, cl, want.Len(), werr)
		}
	}
}
