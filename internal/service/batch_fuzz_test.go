package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"metricprox/internal/datasets"
	"metricprox/internal/faultmetric"
	"metricprox/internal/service/api"
)

// Fuzz op encoding: opBytes bytes per op — kind, i, j, k, l, threshold.
const (
	opBytes  = 6
	maxOps   = 32
	opKinds  = 6 // dist, less, lessthan, distifless, bounds, unknown
	idxShift = 4 // index bytes below 68 decode to b−4: −4 … 63 around [0, 60)
)

var (
	opNames      = [opKinds - 1]string{api.OpDist, api.OpLess, api.OpLessThan, api.OpDistIfLess, api.OpBounds}
	unknownNames = [...]string{"nonsense", "", "DIST", "bounds "}
)

// decodeOps turns fuzz bytes into at most maxOps ops. Index bytes below
// 68 cover both sides of [0, testN); the rest fold into [0, 16), so
// pairs repeat and self-pairs are common. Threshold byte 0 is −Inf, 255
// is +Inf, and c in between is c/64.
func decodeOps(data []byte) []api.BatchOp {
	idx := func(b byte) int {
		if b < testN+2*idxShift {
			return int(b) - idxShift
		}
		return int(b % 16)
	}
	var ops []api.BatchOp
	for len(data) >= opBytes && len(ops) < maxOps {
		b := data[:opBytes]
		data = data[opBytes:]
		op := api.BatchOp{I: idx(b[1]), J: idx(b[2]), K: idx(b[3]), L: idx(b[4])}
		if kind := int(b[0]) % opKinds; kind < len(opNames) {
			op.Op = opNames[kind]
		} else {
			op.Op = unknownNames[int(b[0])/opKinds%len(unknownNames)]
		}
		switch b[5] {
		case 0:
			op.C = api.WireFloat(math.Inf(-1))
		case 255:
			op.C = api.WireFloat(math.Inf(1))
		default:
			op.C = api.WireFloat(float64(b[5]) / 64)
		}
		ops = append(ops, op)
	}
	return ops
}

// encodeOps is decodeOps's inverse for ops it can represent: indices in
// [−4, 64), known op names or "nonsense", thresholds on the 1/64 grid.
func encodeOps(ops []api.BatchOp) []byte {
	var out []byte
	for _, op := range ops {
		kind := len(opNames) // unknown, first name: "nonsense"
		for k, name := range opNames {
			if op.Op == name {
				kind = k
			}
		}
		c := byte(math.Min(254, math.Max(1, math.Round(float64(op.C)*64))))
		switch {
		case math.IsInf(float64(op.C), -1):
			c = 0
		case math.IsInf(float64(op.C), 1):
			c = 255
		}
		out = append(out, byte(kind), byte(op.I+idxShift), byte(op.J+idxShift),
			byte(op.K+idxShift), byte(op.L+idxShift), c)
	}
	return out
}

// failureCodes is the error code each failing scalar status must carry.
var failureCodes = map[int]string{
	http.StatusBadRequest: api.CodeBadRequest,
	http.StatusBadGateway: api.CodeOracleUnavailable,
}

// fuzzServer is one in-process server over its own seeded faulty oracle,
// hosting one bootstrapped tri session named "f".
func fuzzServer(t *testing.T) *Server {
	t.Helper()
	oracle := faultmetric.New(datasets.SFPOIPlanar(testN, testSeed),
		faultmetric.Config{Seed: 5, TransientRate: 0.2})
	srv, err := New(Config{Oracle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rec := serve(srv, "/v1/sessions", api.CreateSessionRequest{Name: "f", Scheme: "tri", Seed: testSeed, Bootstrap: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	return srv
}

// serve posts body (JSON-encoded unless it is already []byte) to path.
func serve(srv *Server, path string, body any) *httptest.ResponseRecorder {
	raw, ok := body.([]byte)
	if !ok {
		raw, _ = json.Marshal(body)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	return rec
}

// scalarRequest is op's request to its scalar endpoint, or ok=false for
// an unknown op, which has none.
func scalarRequest(op api.BatchOp) (path string, body any, ok bool) {
	base := "/v1/sessions/f/" + op.Op
	switch op.Op {
	case api.OpDist, api.OpBounds:
		return base, api.PairRequest{I: op.I, J: op.J}, true
	case api.OpLess:
		return base, api.LessRequest{I: op.I, J: op.J, K: op.K, L: op.L}, true
	case api.OpLessThan:
		return base, api.LessThanRequest{I: op.I, J: op.J, C: op.C}, true
	case api.OpDistIfLess:
		return base, api.DistIfLessRequest{I: op.I, J: op.J, C: op.C}, true
	}
	return "", nil, false
}

// FuzzBatchOps holds /batch to the scalar endpoints. Fuzz bytes become an
// op list run one op at a time through the scalar endpoints on one
// server, and as one /batch on a twin server with an identical session
// over an identically seeded faulty oracle. Every op must end alike —
// 200 with no err, 400 with bad_request, or 502 with oracle_unavailable —
// with identical less and exact, bit-identical d, lb, ub and eps, and the
// two sessions must end with identical Stats. The raw bytes, posted as a
// /batch body, must answer 200 or 400.
func FuzzBatchOps(f *testing.F) {
	f.Add(encodeOps(matchOps(1)))
	f.Add([]byte(`{"ops":[{"op":"dist","i":1,"j":2},{"op":"bounds","i":3,"j":3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		scalar, batch := fuzzServer(t), fuzzServer(t)

		rec := serve(batch, "/v1/sessions/f/batch", api.BatchRequest{Ops: ops})
		var got api.BatchResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil || len(got.Results) != len(ops) {
			t.Fatalf("batch of %d ops: %d %s", len(ops), rec.Code, rec.Body)
		}
		for x, op := range ops {
			var want api.BatchResult
			if path, body, ok := scalarRequest(op); !ok {
				want.Err = api.CodeBadRequest
			} else {
				rec := serve(scalar, path, body)
				if rec.Code == http.StatusOK {
					if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
						t.Fatalf("op %d %+v: scalar body %s: %v", x, op, rec.Body, err)
					}
				} else {
					var eb api.ErrorBody
					code, ok := failureCodes[rec.Code]
					if !ok || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Code != code {
						t.Fatalf("op %d %+v: scalar status %d %s", x, op, rec.Code, rec.Body)
					}
					want.Err = eb.Code
				}
			}
			if g := got.Results[x]; g.Err != want.Err || g.Less != want.Less || g.Exact != want.Exact ||
				math.Float64bits(float64(g.D)) != math.Float64bits(float64(want.D)) ||
				math.Float64bits(float64(g.LB)) != math.Float64bits(float64(want.LB)) ||
				math.Float64bits(float64(g.UB)) != math.Float64bits(float64(want.UB)) ||
				math.Float64bits(float64(g.Eps)) != math.Float64bits(float64(want.Eps)) {
				t.Fatalf("op %d %+v: batch %+v, scalar %+v", x, op, g, want)
			}
		}
		if a, b := sessionStats(t, scalar), sessionStats(t, batch); a != b {
			t.Fatalf("stats differ:\nscalar %+v\nbatch  %+v", a, b)
		}

		if rec := serve(batch, "/v1/sessions/f/batch", data); rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("raw body %q: status %d %s", data, rec.Code, rec.Body)
		}
	})
}

// sessionStats reads session "f"'s stats through the stats endpoint.
func sessionStats(t *testing.T, srv *Server) api.StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/f", nil))
	var st api.StatsResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	return st
}

// spaces is an endless reader of ASCII spaces.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// A body past api.MaxBodyBytes is refused with 400 bad_request, even when
// it is a valid batch: whitespace padding must not buy unbounded reads.
func TestOversizedBodyRejected(t *testing.T) {
	srv := fuzzServer(t)
	body := io.MultiReader(strings.NewReader(`{"ops":[`),
		io.LimitReader(spaces{}, api.MaxBodyBytes), strings.NewReader(`]}`))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/f/batch", body))
	var eb api.ErrorBody
	if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Code != api.CodeBadRequest {
		t.Fatalf("oversized body: status %d %s, want 400 bad_request", rec.Code, rec.Body)
	}
}
