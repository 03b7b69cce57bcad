package proxclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/faultmetric"
	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
	"metricprox/internal/resilient"
	"metricprox/internal/service"
	"metricprox/internal/service/api"
)

const (
	testN    = 60
	testSeed = int64(1)
)

// testSpace is the planar SF surrogate: a pure, bitwise-symmetric
// distance function. The road-network SFPOI answers from cached Dijkstra
// rows, so its values can drift by an ulp with oracle call *history* —
// fine for in-process suites that replay identical call sequences, but
// this suite's client short-circuits comparisons locally, which changes
// the server's resolution order relative to the in-process reference.
// Bit-identity across that reordering needs a history-free oracle.
func testSpace() metric.Space { return datasets.SFPOIPlanar(testN, testSeed) }

// fastOptions returns client options with a microsecond-scale backoff so
// retry paths don't slow the suite down.
func fastOptions() Options {
	return Options{Policy: resilient.Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Microsecond,
		MaxDelay:    32 * time.Microsecond,
		Seed:        testSeed,
	}}
}

// newDaemon starts a service.Server over an httptest listener and returns
// a Client pointed at it plus the daemon's oracle call counter.
func newDaemon(t *testing.T, cfg service.Config) (*Client, *metric.Oracle) {
	t.Helper()
	oracle := metric.NewOracle(testSpace())
	if cfg.Oracle == nil {
		cfg.Oracle = oracle
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return New(ts.URL, fastOptions()), oracle
}

// remoteSession creates a bootstrapped tri-scheme session on the daemon.
func remoteSession(t *testing.T, c *Client, name string) *Session {
	t.Helper()
	sess, err := CreateSession(context.Background(), c, name, "tri",
		SessionOptions{Seed: testSeed, Bootstrap: true})
	if err != nil {
		t.Fatalf("CreateSession(%s): %v", name, err)
	}
	return sess
}

// referenceSession builds the in-process session remote runs must match
// bit for bit: same oracle source, scheme, landmarks, seed as the daemon's
// buildSession.
func referenceSession(t *testing.T) *core.Session {
	t.Helper()
	k := 0
	for v := testN; v > 1; v /= 2 {
		k++
	}
	lms := core.PickLandmarks(testN, k, testSeed)
	s := core.NewFallibleSessionWithLandmarks(metric.NewOracle(testSpace()), core.SchemeTri, lms)
	if _, err := s.BootstrapErr(lms); err != nil {
		t.Fatalf("reference bootstrap: %v", err)
	}
	return s
}

func sameGraph(t *testing.T, got, want [][]prox.Neighbor, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for u := range want {
		if len(got[u]) != len(want[u]) {
			t.Fatalf("%s: row %d has %d neighbours, want %d", label, u, len(got[u]), len(want[u]))
		}
		for x := range want[u] {
			if got[u][x].ID != want[u][x].ID || !fcmp.ExactEq(got[u][x].Dist, want[u][x].Dist) {
				t.Fatalf("%s: row %d entry %d = %+v, want %+v", label, u, x, got[u][x], want[u][x])
			}
		}
	}
}

func sameMST(t *testing.T, got, want prox.MST, label string) {
	t.Helper()
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d edges, want %d", label, len(got.Edges), len(want.Edges))
	}
	for x := range want.Edges {
		g, w := got.Edges[x], want.Edges[x]
		if g.U != w.U || g.V != w.V || !fcmp.ExactEq(g.W, w.W) {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, x, g, w)
		}
	}
	if !fcmp.ExactEq(got.Weight, want.Weight) {
		t.Fatalf("%s: weight %v, want %v", label, got.Weight, want.Weight)
	}
}

func sameClustering(t *testing.T, got, want prox.Clustering, label string) {
	t.Helper()
	if len(got.Medoids) != len(want.Medoids) || len(got.Assign) != len(want.Assign) {
		t.Fatalf("%s: shape (%d,%d), want (%d,%d)", label,
			len(got.Medoids), len(got.Assign), len(want.Medoids), len(want.Assign))
	}
	for x := range want.Medoids {
		if got.Medoids[x] != want.Medoids[x] {
			t.Fatalf("%s: medoid %d = %d, want %d", label, x, got.Medoids[x], want.Medoids[x])
		}
	}
	for x := range want.Assign {
		if got.Assign[x] != want.Assign[x] {
			t.Fatalf("%s: assign %d = %d, want %d", label, x, got.Assign[x], want.Assign[x])
		}
	}
	if !fcmp.ExactEq(got.Cost, want.Cost) {
		t.Fatalf("%s: cost %v, want %v", label, got.Cost, want.Cost)
	}
}

// TestAlgorithmsOverClientSessionBitIdentical is the tentpole guarantee:
// the prox builders, pointed at a remote Session instead of an in-process
// one, produce bit-identical output.
func TestAlgorithmsOverClientSessionBitIdentical(t *testing.T) {
	c, _ := newDaemon(t, service.Config{})

	ref := referenceSession(t)
	wantKNN := prox.KNNGraph(ref, 3)
	wantMST := prox.PrimMST(ref)
	wantPAM := prox.PAM(referenceSession(t), 4, 7)

	sess := remoteSession(t, c, "algo")
	if sess.N() != testN {
		t.Fatalf("N = %d, want %d", sess.N(), testN)
	}
	sameGraph(t, prox.KNNGraph(sess, 3), wantKNN, "client knn")
	sameMST(t, prox.PrimMST(sess), wantMST, "client mst")
	sameClustering(t, prox.PAM(remoteSession(t, c, "algo-pam"), 4, 7), wantPAM, "client pam")
	if err := sess.OracleErr(); err != nil {
		t.Fatalf("OracleErr latched on a healthy daemon: %v", err)
	}
}

// TestRemoteRunnersBitIdentical checks the whole-problem endpoints through
// the client wrappers.
func TestRemoteRunnersBitIdentical(t *testing.T) {
	c, _ := newDaemon(t, service.Config{})
	ctx := context.Background()

	ref := referenceSession(t)
	wantKNN := prox.KNNGraph(ref, 3)
	wantMST := prox.PrimMST(ref)
	wantPAM := prox.PAM(referenceSession(t), 4, 7)

	sess := remoteSession(t, c, "runner")
	gotKNN, err := sess.RemoteKNN(ctx, 3)
	if err != nil {
		t.Fatalf("RemoteKNN: %v", err)
	}
	sameGraph(t, gotKNN, wantKNN, "remote knn")
	gotMST, err := sess.RemoteMST(ctx)
	if err != nil {
		t.Fatalf("RemoteMST: %v", err)
	}
	sameMST(t, gotMST, wantMST, "remote mst")
	gotPAM, err := remoteSession(t, c, "runner-pam").RemoteMedoid(ctx, 4, 7)
	if err != nil {
		t.Fatalf("RemoteMedoid: %v", err)
	}
	sameClustering(t, gotPAM, wantPAM, "remote pam")
}

// TestClientRunsSurviveSeededFaults drives the client through a daemon
// whose oracle injects a deterministic fault schedule absorbed by the
// server-side retry policy: output must still match the fault-free
// reference bit for bit.
func TestClientRunsSurviveSeededFaults(t *testing.T) {
	cfg, err := faultmetric.ParseSpec("seed=9,rate=0.3")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	flaky := resilient.New(faultmetric.New(testSpace(), cfg), resilient.RetryOnlyPolicy(3))
	c, _ := newDaemon(t, service.Config{Oracle: flaky})

	want := prox.KNNGraph(referenceSession(t), 3)
	sess := remoteSession(t, c, "faulty")
	sameGraph(t, prox.KNNGraph(sess, 3), want, "faulty knn")
	if err := sess.OracleErr(); err != nil {
		t.Fatalf("retry policy should have absorbed the schedule, got %v", err)
	}
}

// TestWarmRestartReplaysCache kills a cachestore-backed daemon mid-build
// and restarts it on the same directory: the resumed client run must
// produce the identical graph while spending strictly fewer oracle calls
// than a cold daemon.
func TestWarmRestartReplaysCache(t *testing.T) {
	dir := t.TempDir()

	ref := referenceSession(t)
	want := prox.KNNGraph(ref, 3)
	coldCalls := ref.Stats().OracleCalls

	// Phase 1: resolve half the rows, then take the daemon down.
	oracle1 := metric.NewOracle(testSpace())
	srv1, err := service.New(service.Config{Oracle: oracle1, CacheDir: dir})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	sess1 := remoteSession(t, New(ts1.URL, fastOptions()), "warm")
	for u := 0; u < testN/2; u++ {
		row := prox.KNNRow(sess1, u, 3)
		for x := range want[u] {
			if row[x].ID != want[u][x].ID || !fcmp.ExactEq(row[x].Dist, want[u][x].Dist) {
				t.Fatalf("phase-1 row %d entry %d = %+v, want %+v", u, x, row[x], want[u][x])
			}
		}
	}
	ts1.Close()
	srv1.Close() // evicts the session, syncing and closing its store

	// Phase 2: a fresh daemon on the same cache directory replays the
	// persisted resolutions on attach.
	oracle2 := metric.NewOracle(testSpace())
	srv2, err := service.New(service.Config{Oracle: oracle2, CacheDir: dir})
	if err != nil {
		t.Fatalf("service.New (restart): %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})
	sess2 := remoteSession(t, New(ts2.URL, fastOptions()), "warm")
	sameGraph(t, prox.KNNGraph(sess2, 3), want, "resumed knn")

	warmCalls := oracle2.Calls()
	if warmCalls >= coldCalls {
		t.Fatalf("warm restart spent %d oracle calls, want < cold run's %d", warmCalls, coldCalls)
	}
	if warmCalls == 0 {
		t.Fatal("warm restart spent 0 oracle calls; phase 1 should not have resolved everything")
	}
}

// TestLocalMirrorShortCircuits checks that facts the client has already
// paid for stop round-tripping: known distances settle Less locally, and
// prefetched bounds settle threshold comparisons locally.
func TestLocalMirrorShortCircuits(t *testing.T) {
	c, _ := newDaemon(t, service.Config{})
	sess := remoteSession(t, c, "mirror")

	d01, err := sess.DistErr(0, 1)
	if err != nil {
		t.Fatalf("DistErr: %v", err)
	}
	if _, err := sess.DistErr(2, 3); err != nil {
		t.Fatalf("DistErr: %v", err)
	}

	before := c.Requests()
	if got := sess.Dist(0, 1); !fcmp.ExactEq(got, d01) {
		t.Fatalf("cached Dist = %v, want %v", got, d01)
	}
	sess.Less(0, 1, 2, 3)      // both pairs known
	sess.LessThan(0, 1, d01+1) // known pair vs threshold
	if d, ok := sess.Known(0, 1); !ok || !fcmp.ExactEq(d, d01) {
		t.Fatalf("Known(0,1) = (%v,%v), want (%v,true)", d, ok, d01)
	}
	if c.Requests() != before {
		t.Fatalf("locally decidable calls spent %d round-trips", c.Requests()-before)
	}

	// A batched prefetch warms many pairs in one round-trip.
	var pairs []core.Pair
	for v := 10; v < 30; v++ {
		pairs = append(pairs, core.Pair{A: 5, B: v})
	}
	before = c.Requests()
	sess.PrefetchBounds(pairs)
	if got := c.Requests() - before; got != 1 {
		t.Fatalf("PrefetchBounds(20 pairs) spent %d round-trips, want 1", got)
	}
	before = c.Requests()
	for _, p := range pairs {
		sess.Bounds(p.A, p.B)
	}
	if c.Requests() != before {
		t.Fatal("Bounds after prefetch still round-tripped")
	}

	// Self-pairs never round-trip and keep core's semantics.
	before = c.Requests()
	if d := sess.Dist(7, 7); !fcmp.ExactEq(d, 0) {
		t.Fatalf("Dist(7,7) = %v, want 0", d)
	}
	if lb, ub := sess.Bounds(7, 7); !fcmp.ExactEq(lb, 0) || !fcmp.ExactEq(ub, 0) {
		t.Fatalf("Bounds(7,7) = (%v,%v), want (0,0)", lb, ub)
	}
	if sess.LessThan(7, 7, -1) {
		t.Fatal("LessThan(7,7,-1) = true, want false")
	}
	if c.Requests() != before {
		t.Fatal("self-pair primitives round-tripped")
	}
}

// TestRetryHonoursShedAndRetryAfter exercises the client against a server
// that sheds the first attempt with 503/overloaded.
func TestRetryHonoursShedAndRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"code":"overloaded","message":"queue full"}`))
			return
		}
		w.Write([]byte(`{"status":"ok","n":5,"sessions":0}`))
	}))
	defer ts.Close()

	c := New(ts.URL, fastOptions())
	var slept atomic.Int64
	c.sleep = func(d time.Duration) { slept.Add(int64(d)) }

	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatalf("Healthz after shed: %v", err)
	}
	if h.Status != "ok" || hits.Load() != 2 {
		t.Fatalf("status %q after %d attempts, want ok after 2", h.Status, hits.Load())
	}
	if slept.Load() < int64(time.Second) {
		t.Fatalf("slept %v total, want >= 1s (the server's Retry-After ask)", time.Duration(slept.Load()))
	}
}

// TestPermanentErrorsDontRetry checks that a 4xx answer comes back
// immediately and that oracle_unavailable unwraps to the core sentinel.
func TestPermanentErrorsDontRetry(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte(`{"code":"oracle_unavailable","message":"retries exhausted"}`))
	}))
	defer ts.Close()

	c := New(ts.URL, fastOptions())
	c.sleep = func(time.Duration) {}
	_, err := c.Healthz(context.Background())
	if err == nil {
		t.Fatal("expected an error")
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times, want 1 (permanent errors must not retry)", hits.Load())
	}
	if !errors.Is(err, core.ErrOracleUnavailable) {
		t.Fatalf("err = %v, want errors.Is(.., core.ErrOracleUnavailable)", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeOracleUnavailable {
		t.Fatalf("err = %v, want *APIError with code oracle_unavailable", err)
	}
}

// TestBreakerFailsFastOnDeadDaemon points the client at a dead address:
// after the failure threshold, attempts stop hitting the network.
func TestBreakerFailsFastOnDeadDaemon(t *testing.T) {
	opts := fastOptions()
	opts.Policy.MaxAttempts = 8
	opts.Policy.FailureThreshold = 3
	opts.Policy.Cooldown = time.Hour // no half-open probe within the test
	c := New("http://127.0.0.1:1", opts)
	c.sleep = func(time.Duration) {}

	_, err := c.Healthz(context.Background())
	if err == nil {
		t.Fatal("expected an error from a dead daemon")
	}
	if got := c.Requests(); got != 3 {
		t.Fatalf("dead daemon saw %d connection attempts, want 3 (breaker threshold)", got)
	}
	if c.Breaker().State() != resilient.BreakerOpen {
		t.Fatalf("breaker state %v, want open", c.Breaker().State())
	}
}

// TestDegradedViewLatchesOracleErr checks the legacy View methods degrade
// (estimate, latch) instead of failing when the daemon dies mid-session,
// mirroring core.Session's contract.
func TestDegradedViewLatchesOracleErr(t *testing.T) {
	oracle := metric.NewOracle(testSpace())
	srv, err := service.New(service.Config{Oracle: oracle})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	opts := fastOptions()
	opts.Policy.MaxAttempts = 2
	c := New(ts.URL, opts)
	c.sleep = func(time.Duration) {}
	sess, err := CreateSession(context.Background(), c, "dgr", "tri",
		SessionOptions{Seed: testSeed, Bootstrap: true})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	d01, err := sess.DistErr(0, 1)
	if err != nil {
		t.Fatalf("DistErr while alive: %v", err)
	}

	ts.Close()
	srv.Close()

	if _, err := sess.DistErr(0, 2); err == nil {
		t.Fatal("DistErr should fail once the daemon is gone")
	}
	est := sess.Dist(0, 2) // degraded: midpoint of [0, MaxDistance]
	wantEst := sess.MaxDistance() / 2
	if !fcmp.ExactEq(est, wantEst) {
		t.Fatalf("degraded Dist = %v, want bounds midpoint %v", est, wantEst)
	}
	if sess.OracleErr() == nil {
		t.Fatal("degraded Dist did not latch OracleErr")
	}
	// Mirror facts stay exact even while degraded.
	if d, ok := sess.Known(0, 1); !ok || !fcmp.ExactEq(d, d01) {
		t.Fatalf("Known(0,1) = (%v,%v) after daemon death, want (%v,true)", d, ok, d01)
	}
}

// resolvedSpace records every pair its oracle resolves.
type resolvedSpace struct {
	metric.Space
	mu       sync.Mutex
	resolved map[uint64]bool
}

func (s *resolvedSpace) Distance(i, j int) float64 {
	s.mu.Lock()
	s.resolved[pairKey(i, j)] = true
	s.mu.Unlock()
	return s.Space.Distance(i, j)
}

func (s *resolvedSpace) has(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolved[key]
}

// TestRemoteKNNRowSendsNoDistAfterResolvedDistIfLess runs knn-edit-shaped
// rows — prox.KNNRow with k = 10 over a bootstrapped remote tri session
// on a Levenshtein space, whose ties at the k-th distance send not-less
// candidates back for their value — and holds that once the daemon has
// answered a distifless on a pair it holds resolved, the client never
// asks /dist for that pair: the answer shipped the exact distance into
// the mirror. The rows must still equal the in-process noop rows, and
// each row must cost the round trips the full-heap row scan paid
// (wantTrips): the k-th-upper-bound cut changes no call the scan makes.
func TestRemoteKNNRowSendsNoDistAfterResolvedDistIfLess(t *testing.T) {
	const n, k = 120, 10
	_, dna := datasets.DNA(n, 64, testSeed)
	space := &resolvedSpace{Space: dna, resolved: make(map[uint64]bool)}
	srv, err := service.New(service.Config{Oracle: metric.NewOracle(space)})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	told := make(map[uint64]bool) // pairs a distifless answered while resolved
	var dists, stale int
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		if op != "dist" && op != "distifless" {
			h.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var p api.PairRequest
		if err := json.Unmarshal(body, &p); err != nil {
			t.Errorf("%s body %s: %v", op, body, err)
		}
		key := pairKey(p.I, p.J)
		if op == "dist" {
			dists++
			if told[key] {
				stale++
			}
		}
		h.ServeHTTP(w, r)
		if op == "distifless" && space.has(key) {
			told[key] = true
		}
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := New(ts.URL, fastOptions())
	sess := remoteSession(t, c, "edit")
	ref := core.NewSession(metric.NewOracle(dna), core.SchemeNoop)
	wantTrips := []int64{22, 28, 11, 11, 11, 23, 22, 23, 14, 11, 21, 14, 17, 17, 9,
		19, 19, 16, 27, 17, 21, 9, 17, 18, 13, 21, 20, 16, 17, 7}
	for u := range wantTrips {
		before := c.Requests()
		got := prox.KNNRow(sess, u, k)
		if trips := c.Requests() - before; trips != wantTrips[u] {
			t.Errorf("row %d: %d round trips, the full-heap scan paid %d", u, trips, wantTrips[u])
		}
		sameGraph(t, [][]prox.Neighbor{got}, [][]prox.Neighbor{prox.KNNRow(ref, u, k)}, fmt.Sprintf("row %d", u))
	}
	if len(told) == 0 {
		t.Fatal("no distifless was answered on a resolved pair; the rows exercise nothing")
	}
	if stale > 0 {
		t.Fatalf("%d of %d /dist requests asked for a pair a distifless had answered resolved", stale, dists)
	}
}
