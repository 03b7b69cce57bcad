package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
	"metricprox/internal/prox"
	"metricprox/internal/service/api"
)

const (
	testN    = 60
	testSeed = int64(1)
)

func testSpace() metric.Space { return datasets.SFPOI(testN, testSeed) }

// newTestServer starts a Server over its own oracle and returns it with
// an httptest listener. Callers own srv.Close.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *metric.Oracle) {
	t.Helper()
	oracle := metric.NewOracle(testSpace())
	if cfg.Oracle == nil {
		cfg.Oracle = oracle
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, oracle
}

// post sends a JSON request and decodes a JSON response, failing the test
// on any status other than want.
func post(t *testing.T, url string, reqBody, out any, want int) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if reqBody != nil {
		if err := json.NewEncoder(&buf).Encode(reqBody); err != nil {
			t.Fatalf("encode request: %v", err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	if resp.StatusCode != want {
		t.Fatalf("POST %s: status %d, want %d; body %s", url, resp.StatusCode, want, body.String())
	}
	if out != nil && resp.StatusCode == want {
		if err := json.Unmarshal(body.Bytes(), out); err != nil {
			t.Fatalf("decode response %s: %v", body.String(), err)
		}
	}
	return resp
}

func createSession(t *testing.T, base, name, scheme string, bootstrap bool) api.SessionInfo {
	t.Helper()
	var info api.SessionInfo
	post(t, base+"/v1/sessions", api.CreateSessionRequest{
		Name: name, Scheme: scheme, Seed: testSeed, Bootstrap: bootstrap,
	}, &info, http.StatusOK)
	return info
}

// referenceSession builds the in-process session the server-side runs
// must match bit for bit: same oracle source, scheme, landmarks, seed.
func referenceSession(t *testing.T, scheme core.Scheme) *core.Session {
	t.Helper()
	k := 0
	for v := testN; v > 1; v /= 2 {
		k++
	}
	lms := core.PickLandmarks(testN, k, testSeed)
	s := core.NewFallibleSessionWithLandmarks(metric.NewOracle(testSpace()), scheme, lms)
	if scheme != core.SchemeNoop {
		if _, err := s.BootstrapErr(lms); err != nil {
			t.Fatalf("reference bootstrap: %v", err)
		}
	}
	return s
}

func TestServerSideRunsMatchInProcess(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	createSession(t, ts.URL, "equiv", "tri", true)
	base := ts.URL + "/v1/sessions/equiv"

	ref := referenceSession(t, core.SchemeTri)
	wantKNN := prox.KNNGraph(ref, 3)
	wantMST := prox.PrimMST(ref)
	wantPAM := prox.PAM(referenceSession(t, core.SchemeTri), 4, 7)

	var knn api.KNNResponse
	post(t, base+"/knn", api.KNNRequest{K: 3}, &knn, http.StatusOK)
	if len(knn.Rows) != testN {
		t.Fatalf("knn rows = %d, want %d", len(knn.Rows), testN)
	}
	for u, row := range knn.Rows {
		if len(row) != len(wantKNN[u]) {
			t.Fatalf("node %d: %d neighbours, want %d", u, len(row), len(wantKNN[u]))
		}
		for i, nb := range row {
			if nb.ID != wantKNN[u][i].ID || !fcmp.ExactEq(float64(nb.D), wantKNN[u][i].Dist) {
				t.Fatalf("node %d neighbour %d: got (%d, %v), want (%d, %v)",
					u, i, nb.ID, float64(nb.D), wantKNN[u][i].ID, wantKNN[u][i].Dist)
			}
		}
	}

	var mst api.MSTResponse
	post(t, base+"/mst", nil, &mst, http.StatusOK)
	if !fcmp.ExactEq(float64(mst.Weight), wantMST.Weight) || len(mst.Edges) != len(wantMST.Edges) {
		t.Fatalf("mst weight %v / %d edges, want %v / %d",
			float64(mst.Weight), len(mst.Edges), wantMST.Weight, len(wantMST.Edges))
	}
	for i, e := range mst.Edges {
		w := wantMST.Edges[i]
		if e.U != w.U || e.V != w.V || !fcmp.ExactEq(float64(e.W), w.W) {
			t.Fatalf("mst edge %d: got (%d,%d,%v), want (%d,%d,%v)", i, e.U, e.V, float64(e.W), w.U, w.V, w.W)
		}
	}

	// PAM mutates bound state heavily; run it on a fresh session so the
	// reference and remote start from the same (bootstrapped-only) state.
	createSession(t, ts.URL, "equiv-pam", "tri", true)
	var med api.MedoidResponse
	post(t, ts.URL+"/v1/sessions/equiv-pam/medoid", api.MedoidRequest{L: 4, Seed: 7}, &med, http.StatusOK)
	if !reflect.DeepEqual(med.Medoids, wantPAM.Medoids) || !reflect.DeepEqual(med.Assign, wantPAM.Assign) ||
		!fcmp.ExactEq(float64(med.Cost), wantPAM.Cost) {
		t.Fatalf("medoid: got %v/%v, want %v/%v", med.Medoids, float64(med.Cost), wantPAM.Medoids, wantPAM.Cost)
	}
}

func TestPrimitivesMatchInProcess(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	createSession(t, ts.URL, "prims", "tri", true)
	base := ts.URL + "/v1/sessions/prims"
	ref := referenceSession(t, core.SchemeTri)

	var dist api.DistResponse
	post(t, base+"/dist", api.PairRequest{I: 3, J: 17}, &dist, http.StatusOK)
	if want := ref.Dist(3, 17); !fcmp.ExactEq(float64(dist.D), want) {
		t.Fatalf("dist = %v, want %v", float64(dist.D), want)
	}

	var less api.LessResponse
	post(t, base+"/less", api.LessRequest{I: 3, J: 17, K: 5, L: 40}, &less, http.StatusOK)
	if want := ref.Less(3, 17, 5, 40); less.Less != want {
		t.Fatalf("less = %v, want %v", less.Less, want)
	}

	post(t, base+"/lessthan", api.LessThanRequest{I: 8, J: 9, C: 0.2}, &less, http.StatusOK)
	if want := ref.LessThan(8, 9, 0.2); less.Less != want {
		t.Fatalf("lessthan = %v, want %v", less.Less, want)
	}

	var dil api.DistIfLessResponse
	post(t, base+"/distifless", api.DistIfLessRequest{I: 2, J: 30, C: api.WireFloat(ref.MaxDistance() * 2)}, &dil, http.StatusOK)
	wd, wl := ref.DistIfLess(2, 30, ref.MaxDistance()*2)
	if dil.Less != wl || !dil.Exact || !fcmp.ExactEq(float64(dil.D), wd) {
		t.Fatalf("distifless = (%v,%v,exact %v), want (%v,%v,exact)", float64(dil.D), dil.Less, dil.Exact, wd, wl)
	}

	var bounds api.BoundsResponse
	post(t, base+"/bounds", api.PairRequest{I: 2, J: 30}, &bounds, http.StatusOK)
	lb, ub := ref.Bounds(2, 30)
	if !fcmp.ExactEq(float64(bounds.LB), lb) || !fcmp.ExactEq(float64(bounds.UB), ub) {
		t.Fatalf("bounds = [%v,%v], want [%v,%v]", float64(bounds.LB), float64(bounds.UB), lb, ub)
	}

	// The pair was just resolved by distifless: bounds must have collapsed.
	if !fcmp.ExactEq(float64(bounds.LB), float64(bounds.UB)) {
		t.Fatalf("bounds of a resolved pair did not collapse: [%v,%v]", float64(bounds.LB), float64(bounds.UB))
	}
}

// TestDistIfLessShipsExactDistance pins distifless's not-less answers on
// the wire: a pair the session holds resolved, by this call or an earlier
// one, ships its exact distance with exact set, and a pair the bounds
// decided ships neither.
func TestDistIfLessShipsExactDistance(t *testing.T) {
	_, ts, oracle := newTestServer(t, Config{})
	createSession(t, ts.URL, "exact", "tri", true)
	base := ts.URL + "/v1/sessions/exact"

	// An unresolved pair with a proper interval and a positive lower bound.
	var pair api.PairRequest
	var bounds api.BoundsResponse
	for v := 1; bounds.LB <= 0 || bounds.LB >= bounds.UB; v++ {
		if v == testN {
			t.Fatal("no unresolved pair with 0 < lb < ub")
		}
		pair = api.PairRequest{I: testN - 1, J: v}
		post(t, base+"/bounds", pair, &bounds, http.StatusOK)
	}
	distIfLess := func(c float64) api.DistIfLessResponse {
		t.Helper()
		var r api.DistIfLessResponse
		post(t, base+"/distifless", api.DistIfLessRequest{I: pair.I, J: pair.J, C: api.WireFloat(c)}, &r, http.StatusOK)
		return r
	}

	// c = lb: the bounds prove d ≥ c without a resolution.
	calls := oracle.Calls()
	if r := distIfLess(float64(bounds.LB)); r.Less || r.Exact || r.D != 0 || oracle.Calls() != calls {
		t.Fatalf("bounds-decided not-less = %+v after %d oracle calls, want no d, no exact, no call", r, oracle.Calls()-calls)
	}
	// c just above lb: undecided, so this call resolves the pair.
	r := distIfLess(math.Nextafter(float64(bounds.LB), 1))
	if oracle.Calls() != calls+1 {
		t.Fatalf("distifless above lb made %d oracle calls, want 1", oracle.Calls()-calls)
	}
	var dist api.DistResponse
	post(t, base+"/dist", pair, &dist, http.StatusOK)
	if r.Less || !r.Exact || math.Float64bits(float64(r.D)) != math.Float64bits(float64(dist.D)) {
		t.Fatalf("resolving not-less = %+v, want d = %v and exact", r, float64(dist.D))
	}
	// c = 0 on the pair now resolved: a cache hit, still not less.
	if r := distIfLess(0); r.Less || !r.Exact || math.Float64bits(float64(r.D)) != math.Float64bits(float64(dist.D)) {
		t.Fatalf("resolved not-less = %+v, want d = %v and exact", r, float64(dist.D))
	}
	if oracle.Calls() != calls+1 {
		t.Fatalf("answers from the resolved pair made %d more oracle calls", oracle.Calls()-calls-1)
	}
}

// matchOps is TestBatchMatchesScalars's op list, one op of every kind
// plus an unknown op and an out-of-range pair; FuzzBatchOps seeds its
// corpus with it.
func matchOps(maxDist float64) []api.BatchOp {
	return []api.BatchOp{
		{Op: api.OpBounds, I: 1, J: 2},
		{Op: api.OpDist, I: 1, J: 2},
		{Op: api.OpLess, I: 1, J: 2, K: 3, L: 4},
		{Op: api.OpLessThan, I: 5, J: 6, C: 0.5},
		{Op: api.OpDistIfLess, I: 7, J: 8, C: api.WireFloat(maxDist * 2)},
		{Op: "nonsense", I: 1, J: 2},
		{Op: api.OpDist, I: -1, J: 2},
	}
}

func TestBatchMatchesScalars(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	createSession(t, ts.URL, "batch", "tri", true)
	ref := referenceSession(t, core.SchemeTri)

	ops := matchOps(ref.MaxDistance())
	var resp api.BatchResponse
	post(t, ts.URL+"/v1/sessions/batch/batch", api.BatchRequest{Ops: ops}, &resp, http.StatusOK)
	if len(resp.Results) != len(ops) {
		t.Fatalf("%d results for %d ops", len(resp.Results), len(ops))
	}

	lb, ub := ref.Bounds(1, 2)
	if r := resp.Results[0]; !fcmp.ExactEq(float64(r.LB), lb) || !fcmp.ExactEq(float64(r.UB), ub) {
		t.Fatalf("batch bounds [%v,%v], want [%v,%v]", float64(r.LB), float64(r.UB), lb, ub)
	}
	if r := resp.Results[1]; !fcmp.ExactEq(float64(r.D), ref.Dist(1, 2)) {
		t.Fatalf("batch dist %v, want %v", float64(r.D), ref.Dist(1, 2))
	}
	if r := resp.Results[2]; r.Less != ref.Less(1, 2, 3, 4) {
		t.Fatalf("batch less %v, want %v", r.Less, ref.Less(1, 2, 3, 4))
	}
	if r := resp.Results[3]; r.Less != ref.LessThan(5, 6, 0.5) {
		t.Fatalf("batch lessthan %v, want %v", r.Less, ref.LessThan(5, 6, 0.5))
	}
	wd, wl := ref.DistIfLess(7, 8, ref.MaxDistance()*2)
	if r := resp.Results[4]; r.Less != wl || !r.Exact || !fcmp.ExactEq(float64(r.D), wd) {
		t.Fatalf("batch distifless (%v,%v,exact %v), want (%v,%v,exact)", float64(r.D), r.Less, r.Exact, wd, wl)
	}
	if r := resp.Results[5]; r.Err != api.CodeBadRequest {
		t.Fatalf("unknown op err = %q, want %q", r.Err, api.CodeBadRequest)
	}
	if r := resp.Results[6]; r.Err != api.CodeBadRequest {
		t.Fatalf("out-of-range op err = %q, want %q", r.Err, api.CodeBadRequest)
	}
}

func TestCreateConflictAndValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	createSession(t, ts.URL, "c1", "tri", false)

	// Same parameters: idempotent attach.
	var info api.SessionInfo
	post(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{Name: "c1", Scheme: "tri", Seed: testSeed}, &info, http.StatusOK)
	if info.Created {
		t.Fatal("re-create with same params reported Created=true")
	}

	// Different scheme: conflict.
	post(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{Name: "c1", Scheme: "splub", Seed: testSeed}, nil, http.StatusConflict)

	// Bad names and schemes are rejected up front.
	post(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{Name: "../evil", Scheme: "tri"}, nil, http.StatusBadRequest)
	post(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{Name: "ok", Scheme: "warp"}, nil, http.StatusBadRequest)

	// Unknown session name on a work endpoint.
	post(t, ts.URL+"/v1/sessions/ghost/dist", api.PairRequest{I: 0, J: 1}, nil, http.StatusNotFound)
}

func TestMaxSessionsCap(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxSessions: 2})
	createSession(t, ts.URL, "a", "tri", false)
	createSession(t, ts.URL, "b", "tri", false)
	resp := post(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{Name: "c", Scheme: "tri"}, nil, http.StatusServiceUnavailable)
	_ = resp
	// Attaching to an existing session still works at the cap.
	post(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{Name: "a", Scheme: "tri", Seed: testSeed}, nil, http.StatusOK)
	// Deleting frees a slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/b", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil || dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %v %v", err, dresp.Status)
	}
	dresp.Body.Close()
	createSession(t, ts.URL, "c", "tri", false)
}

// gatedOracle blocks every DistanceCtx call until released, making
// admission tests deterministic.
type gatedOracle struct {
	space   metric.Space
	entered chan struct{} // receives one token per call that has started
	release chan struct{} // closed to let calls finish
}

func (g *gatedOracle) Len() int { return g.space.Len() }

func (g *gatedOracle) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return g.space.Distance(i, j), nil
}

// switchOracle answers from space, or fails every call while down.
type switchOracle struct {
	space metric.Space
	down  atomic.Bool
}

func (o *switchOracle) Len() int { return o.space.Len() }

func (o *switchOracle) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	if o.down.Load() {
		return 0, errors.New("backend down")
	}
	return o.space.Distance(i, j), nil
}

// TestAlgorithmsFailOnlyOnTheirOwnResolutions: a /knn, /mst or /medoid
// request made during an outage answers 502, but one /dist that failed
// during an outage must not fail them once the oracle is back — the
// session latches that failure in OracleErr, and the algorithms answer
// exactly as a session that never saw it. Planar data, so answers
// compare bit for bit with an in-process run.
func TestAlgorithmsFailOnlyOnTheirOwnResolutions(t *testing.T) {
	o := &switchOracle{space: datasets.SFPOIPlanar(testN, testSeed)}
	ref := func() *core.Session { return core.NewSession(metric.NewOracle(o.space), core.SchemeTri) }
	_, ts, _ := newTestServer(t, Config{Oracle: o})
	createSession(t, ts.URL, "outage", "tri", false)
	base := ts.URL + "/v1/sessions/outage"

	o.down.Store(true)
	post(t, base+"/dist", api.PairRequest{I: 1, J: 2}, nil, http.StatusBadGateway)
	post(t, base+"/knn", api.KNNRequest{K: 3}, nil, http.StatusBadGateway)
	post(t, base+"/mst", nil, nil, http.StatusBadGateway)
	post(t, base+"/medoid", api.MedoidRequest{L: 4, Seed: 7}, nil, http.StatusBadGateway)

	o.down.Store(false)
	post(t, base+"/dist", api.PairRequest{I: 1, J: 2}, nil, http.StatusOK)
	var knn api.KNNResponse
	post(t, base+"/knn", api.KNNRequest{K: 3}, &knn, http.StatusOK)
	want := prox.KNNGraph(ref(), 3)
	for u, row := range knn.Rows {
		for i, nb := range row {
			if nb.ID != want[u][i].ID || !fcmp.ExactEq(float64(nb.D), want[u][i].Dist) {
				t.Fatalf("node %d neighbour %d: got (%d, %v), want (%d, %v)",
					u, i, nb.ID, float64(nb.D), want[u][i].ID, want[u][i].Dist)
			}
		}
	}
	var mst api.MSTResponse
	post(t, base+"/mst", nil, &mst, http.StatusOK)
	if wantMST := prox.PrimMST(ref()); !fcmp.ExactEq(float64(mst.Weight), wantMST.Weight) {
		t.Fatalf("mst weight %v, want %v", float64(mst.Weight), wantMST.Weight)
	}
	var med api.MedoidResponse
	post(t, base+"/medoid", api.MedoidRequest{L: 4, Seed: 7}, &med, http.StatusOK)
	if wantPAM := prox.PAM(ref(), 4, 7); !fcmp.ExactEq(float64(med.Cost), wantPAM.Cost) {
		t.Fatalf("medoid cost %v, want %v", float64(med.Cost), wantPAM.Cost)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	reg := obs.NewRegistry()
	gate := &gatedOracle{space: testSpace(), entered: make(chan struct{}, 8), release: make(chan struct{})}
	_, ts, _ := newTestServer(t, Config{Oracle: gate, Queue: 1, Registry: reg})
	createSession(t, ts.URL, "q", "noop", false)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var d api.DistResponse
		post(t, ts.URL+"/v1/sessions/q/dist", api.PairRequest{I: 0, J: 1}, &d, http.StatusOK)
	}()
	<-gate.entered // slot holder is now inside the oracle

	// Second request: the single work slot is busy → shed with Retry-After.
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(api.PairRequest{I: 0, J: 2})
	resp, err := http.Post(ts.URL+"/v1/sessions/q/dist", "application/json", &buf)
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	var errBody api.ErrorBody
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || errBody.Code != api.CodeOverloaded {
		t.Fatalf("shed response: status %d code %q, want 503 %q", resp.StatusCode, errBody.Code, api.CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	close(gate.release)
	wg.Wait()

	if got := reg.Counter(MetricShed, obs.Label{Key: "endpoint", Value: "dist"}).Value(); got != 1 {
		t.Fatalf("%s{endpoint=dist} = %d, want 1", MetricShed, got)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	createSession(t, ts.URL, "d", "tri", false)

	srv.BeginDrain()
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(api.PairRequest{I: 0, J: 1})
	resp, err := http.Post(ts.URL+"/v1/sessions/d/dist", "application/json", &buf)
	if err != nil {
		t.Fatalf("drain request: %v", err)
	}
	var errBody api.ErrorBody
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || errBody.Code != api.CodeDraining {
		t.Fatalf("drain response: status %d code %q, want 503 %q", resp.StatusCode, errBody.Code, api.CodeDraining)
	}

	// Healthz keeps answering, reporting the drain.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	var h api.Healthz
	json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if h.Status != "draining" {
		t.Fatalf("healthz status %q during drain, want draining", h.Status)
	}
}

func TestCachePersistsAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	space := testSpace()

	// Cold server: resolve a set of pairs, then shut down cleanly.
	oracle1 := metric.NewOracle(space)
	srv1, err := New(Config{Oracle: oracle1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	createSession(t, ts1.URL, "warm", "tri", true)
	var ops []api.BatchOp
	for j := 1; j <= 20; j++ {
		ops = append(ops, api.BatchOp{Op: api.OpDist, I: 0, J: j})
	}
	var bresp api.BatchResponse
	post(t, ts1.URL+"/v1/sessions/warm/batch", api.BatchRequest{Ops: ops}, &bresp, http.StatusOK)
	want := make([]float64, len(bresp.Results))
	for i, r := range bresp.Results {
		want[i] = float64(r.D)
	}
	coldCalls := oracle1.Calls()
	ts1.Close()
	srv1.Close() // evicts sessions, closing (and flushing) the cache store

	if _, err := filepath.Glob(filepath.Join(dir, "warm.cache")); err != nil {
		t.Fatal(err)
	}

	// Restarted server over the same CacheDir: same pairs must come from
	// the replayed cache with strictly fewer oracle calls.
	oracle2 := metric.NewOracle(space)
	srv2, err := New(Config{Oracle: oracle2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	createSession(t, ts2.URL, "warm", "tri", true)
	post(t, ts2.URL+"/v1/sessions/warm/batch", api.BatchRequest{Ops: ops}, &bresp, http.StatusOK)
	for i, r := range bresp.Results {
		if !fcmp.ExactEq(float64(r.D), want[i]) {
			t.Fatalf("pair %d after restart: %v, want %v", i, float64(r.D), want[i])
		}
	}
	if oracle2.Calls() >= coldCalls {
		t.Fatalf("warm restart made %d oracle calls, want < %d", oracle2.Calls(), coldCalls)
	}
}

func TestServiceMetricsAppear(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts, _ := newTestServer(t, Config{Registry: reg})
	createSession(t, ts.URL, "m", "tri", false)
	var d api.DistResponse
	post(t, ts.URL+"/v1/sessions/m/dist", api.PairRequest{I: 0, J: 1}, &d, http.StatusOK)

	if got := reg.Counter(MetricRequests,
		obs.Label{Key: "endpoint", Value: "dist"}, obs.Label{Key: "code", Value: "200"}).Value(); got != 1 {
		t.Fatalf("%s{dist,200} = %d, want 1", MetricRequests, got)
	}
	if got := reg.Histogram(MetricLatency, obs.Label{Key: "endpoint", Value: "dist"}).Count(); got != 1 {
		t.Fatalf("%s{dist} count = %d, want 1", MetricLatency, got)
	}
	if got := reg.Gauge(MetricSessions).Value(); !fcmp.ExactEq(got, 1) {
		t.Fatalf("%s = %v, want 1", MetricSessions, got)
	}
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Healthz
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.N != testN {
		t.Fatalf("healthz = %+v, want ok/%d", h, testN)
	}
}

func TestSessionListSorted(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, name := range []string{"zeta", "alpha", "mid"} {
		createSession(t, ts.URL, name, "tri", false)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list api.SessionList
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if want := []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(list.Sessions, want) {
		t.Fatalf("sessions = %v, want %v", list.Sessions, want)
	}
}

func TestTTLEvictionEndToEnd(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{SessionTTL: 80 * time.Millisecond})
	createSession(t, ts.URL, "ttl", "tri", false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		var list api.SessionList
		json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if len(list.Sessions) == 0 {
			return // swept
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %v not TTL-evicted within deadline", list.Sessions)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSelfPairRejected(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	createSession(t, ts.URL, "self", "tri", false)
	var eb api.ErrorBody
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(api.PairRequest{I: 4, J: 4})
	resp, err := http.Post(ts.URL+"/v1/sessions/self/dist", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Code != api.CodeBadRequest {
		t.Fatalf("self pair: status %d code %q", resp.StatusCode, eb.Code)
	}
}

// TestBatchBoundsRunMatchesScalar drives the /batch bounds fast path: a
// long consecutive run of bounds ops (served by one BoundsBatch sweep),
// interrupted by invalid pairs inside the run and a dist op that splits
// it. Every bounds result must equal the reference session's scalar
// answer, and invalid ops must fail individually.
func TestBatchBoundsRunMatchesScalar(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	createSession(t, ts.URL, "boundsrun", "tri", true)
	ref := referenceSession(t, core.SchemeTri)

	rng := rand.New(rand.NewSource(21))
	var ops []api.BatchOp
	for q := 0; q < 40; q++ {
		ops = append(ops, api.BatchOp{Op: api.OpBounds, I: rng.Intn(testN), J: rng.Intn(testN)})
	}
	ops[7] = api.BatchOp{Op: api.OpBounds, I: 7, J: 7}   // self pair: rejected
	ops[13] = api.BatchOp{Op: api.OpBounds, I: -1, J: 3} // out of range: rejected
	ops[20] = api.BatchOp{Op: api.OpDist, I: 20, J: 21}  // splits the run
	ops = append(ops, ops[0])                            // duplicate of the first query

	var resp api.BatchResponse
	post(t, ts.URL+"/v1/sessions/boundsrun/batch", api.BatchRequest{Ops: ops}, &resp, http.StatusOK)
	if len(resp.Results) != len(ops) {
		t.Fatalf("%d results for %d ops", len(resp.Results), len(ops))
	}
	for idx, op := range ops {
		res := resp.Results[idx]
		switch {
		case idx == 7 || idx == 13:
			if res.Err != api.CodeBadRequest {
				t.Fatalf("op %d: err %q, want %q", idx, res.Err, api.CodeBadRequest)
			}
		case idx == 20:
			if !fcmp.ExactEq(float64(res.D), ref.Dist(op.I, op.J)) {
				t.Fatalf("op %d: dist %v, want %v", idx, float64(res.D), ref.Dist(op.I, op.J))
			}
		default:
			lb, ub := ref.Bounds(op.I, op.J)
			if !fcmp.ExactEq(float64(res.LB), lb) || !fcmp.ExactEq(float64(res.UB), ub) {
				t.Fatalf("op %d (%d,%d): bounds [%v,%v], want [%v,%v]",
					idx, op.I, op.J, float64(res.LB), float64(res.UB), lb, ub)
			}
		}
	}
}
