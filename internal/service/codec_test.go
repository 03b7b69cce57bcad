package service

import (
	"net/http"
	"strings"
	"testing"
)

// replMeta is a canonical meta object for the receiver tests' universe.
const replMeta = `"meta":{"scheme":"tri","landmarks":3,"seed":1,"n":60}`

// Replication records as the wire carries them, base64 of cachestore's
// 20-byte layout: (0, 1) at 0.5, and at +Inf.
const (
	recHalf = `"AAAAAAEAAAAAAAAAAADgP7ln7hs="`
	recInf  = `"AAAAAAEAAAAAAAAAAADwfwm9x1s="`
)

// Bodies outside the codec's canonical form take the encoding/json
// fallback, and each must get the status and body that encoding/json alone
// gave it, recorded before the codec existed: whitespace, reordered or
// case-folded keys and escapes decode as before, and the malformed ones
// keep their 400 and message. The /v1/repl rows carry records as base64
// (the rows named for record indices now put the same literals in
// "from", the log index of the batch), and the rows after "null records"
// are new with the raw record form: an old sender's record array and
// malformed records are refused.
func TestNonCanonicalBodiesAnswerAsBefore(t *testing.T) {
	const (
		bounds = `{"results":[{"lb":0.12411124069607157,"ub":0.4037222862845483}]}` + "\n"
		dist   = `{"results":[{"d":0.244515720913677}]}` + "\n"
		empty  = `{"results":[]}` + "\n"
		seq0   = `{"seq":0}` + "\n"
		seq1   = `{"seq":1}` + "\n"
	)
	badRequest := func(msg string) string {
		return `{"code":"bad_request","message":"` + msg + `"}` + "\n"
	}
	batch := func(ops string) string { return `{"ops":[` + ops + `]}` }
	appendOf := func(records string) string {
		return `{"node":"a",` + replMeta + `,"from":0,"records":` + records + `}`
	}
	appendFrom := func(from string) string {
		return `{"node":"a",` + replMeta + `,"from":` + from + `,"records":` + recHalf + `}`
	}
	const ok, bad = http.StatusOK, http.StatusBadRequest
	cases := []struct {
		name, path, body string
		status           int
		want             string
	}{
		{"spaces", "/v1/sessions/f/batch", `{ "ops" : [ { "op" : "dist" , "i" : 1 , "j" : 2 } ] }`, ok, dist},
		{"reordered keys", "/v1/sessions/f/batch", batch(`{"j":2,"i":1,"op":"dist"}`), ok, dist},
		{"OP key", "/v1/sessions/f/batch", batch(`{"OP":"bounds","i":1,"j":2}`), ok, bounds},
		{"escaped op", "/v1/sessions/f/batch", batch(`{"op":"\u0062ounds","i":1,"j":2}`), ok, bounds},
		{"unknown field", "/v1/sessions/f/batch", batch(`{"op":"dist","i":1,"j":2,"x":1}`), bad, badRequest(`json: unknown field \"x\"`)},
		{"null", "/v1/sessions/f/batch", `null`, ok, empty},
		{"index 1.0", "/v1/sessions/f/batch", batch(`{"op":"dist","i":1.0,"j":2}`), bad,
			badRequest("json: cannot unmarshal number 1.0 into Go struct field BatchOp.ops.i of type int")},
		{"index 1e2", "/v1/sessions/f/batch", batch(`{"op":"dist","i":1e2,"j":2}`), bad,
			badRequest("json: cannot unmarshal number 1e2 into Go struct field BatchOp.ops.i of type int")},
		{"index overflow", "/v1/sessions/f/batch", batch(`{"op":"dist","i":99999999999999999999,"j":2}`), bad,
			badRequest("json: cannot unmarshal number 99999999999999999999 into Go struct field BatchOp.ops.i of type int")},
		{"threshold Inf", "/v1/sessions/f/batch", batch(`{"op":"lessthan","i":1,"j":2,"c":"Inf"}`), ok, `{"results":[{"less":true}]}` + "\n"},
		{"trailing bytes", "/v1/sessions/f/batch", batch(`{"op":"bounds","i":1,"j":2}`) + "xyz", ok, bounds},
		{"empty ops", "/v1/sessions/f/batch", `{"ops":[]}`, ok, empty},
		{"null ops", "/v1/sessions/f/batch", `{"ops":null}`, ok, empty},

		{"spaces", "/v1/repl/s", `{ "node" : "a" , ` + replMeta + ` , "from" : 0 , "records" : ` + recHalf + ` }`, ok, seq1},
		{"reordered keys", "/v1/repl/s", `{"from":0,"records":` + recHalf + `,"node":"a",` + replMeta + `}`, ok, seq1},
		{"NODE key", "/v1/repl/s", `{"NODE":"a",` + replMeta + `,"from":0,"records":` + recHalf + `}`, ok, seq1},
		{"escaped scheme", "/v1/repl/s", `{"node":"a","meta":{"scheme":"\u0074ri","landmarks":3,"seed":1,"n":60},"from":0,"records":` + recHalf + `}`, ok, seq1},
		{"unknown field", "/v1/repl/s", `{"node":"a",` + replMeta + `,"from":0,"records":` + recHalf + `,"x":1}`, bad, badRequest(`json: unknown field \"x\"`)},
		{"null", "/v1/repl/s", `null`, bad, badRequest("universe mismatch: sender has n=0, this node n=60")},
		{"index 1.0", "/v1/repl/s", appendFrom(`1.0`), bad,
			badRequest("json: cannot unmarshal number 1.0 into Go struct field ReplAppendRequest.from of type int64")},
		{"index 1e2", "/v1/repl/s", appendFrom(`1e2`), bad,
			badRequest("json: cannot unmarshal number 1e2 into Go struct field ReplAppendRequest.from of type int64")},
		{"index overflow", "/v1/repl/s", appendFrom(`99999999999999999999`), bad,
			badRequest("json: cannot unmarshal number 99999999999999999999 into Go struct field ReplAppendRequest.from of type int64")},
		{"distance Inf", "/v1/repl/s", appendOf(recInf), ok, seq1},
		{"trailing bytes", "/v1/repl/s", appendOf(recHalf) + "xyz", ok, seq1},
		{"empty records", "/v1/repl/s", appendOf(`""`), ok, seq0},
		{"null records", "/v1/repl/s", appendOf(`null`), ok, seq0},
		{"escaped records", "/v1/repl/s", appendOf(`"\u0041AAAAAEAAAAAAAAAAADgP7ln7hs="`), ok, seq1},
		{"unpadded records", "/v1/repl/s", appendOf(`"AAAAAAEAAAAAAAAAAADgP7ln7hs"`), bad,
			badRequest("illegal base64 data at input byte 24")},
		{"record array", "/v1/repl/s", appendOf(`[{"i":0,"j":1,"d":0.5}]`), bad,
			badRequest("json: cannot unmarshal object into Go struct field ReplAppendRequest.records of type uint8")},
		{"bad checksum", "/v1/repl/s", appendOf(`"AAAAAAEAAAAAAAAAAADgP7hn7hs="`), bad, badRequest("record 0: checksum mismatch")},
		{"torn record", "/v1/repl/s", appendOf(`"AAAAAAEAAAAAAAAAAADgP7ln7g=="`), bad, badRequest("record 0: torn, 19 of 20 bytes")},
		{"self pair", "/v1/repl/s", appendOf(`"AgAAAAIAAAAAAAAAAADgP6hx9Zw="`), bad, badRequest("record 0: invalid pair (2,2) for universe 60")},
	}
	for _, c := range cases {
		t.Run(strings.TrimPrefix(c.path, "/v1/")+"/"+c.name, func(t *testing.T) {
			var srv *Server
			if strings.HasPrefix(c.path, "/v1/repl/") {
				srv = replicaServer(t)
			} else {
				srv = fuzzServer(t)
			}
			rec := serve(srv, c.path, []byte(c.body))
			if rec.Code != c.status || rec.Body.String() != c.want {
				t.Fatalf("%s: %d %q, want %d %q", c.body, rec.Code, rec.Body, c.status, c.want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
		})
	}
}
