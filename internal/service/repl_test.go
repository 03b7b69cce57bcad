package service

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"metricprox/internal/cachestore"
	"metricprox/internal/cluster"
	"metricprox/internal/faultmetric"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
	"metricprox/internal/resilient"
	"metricprox/internal/service/api"
)

// clusterPair is a two-node test cluster: node "a" (the primary side —
// its server gets the Replicator) and node "b" (the replica side), each a
// full service.Server with its own cache dir, plus the topology both
// share. URLs are real httptest listeners, so replication crosses a
// loopback socket exactly as in production.
type clusterPair struct {
	srvA, srvB   *Server
	tsA, tsB     *httptest.Server
	dirA, dirB   string
	topoA, topoB *cluster.Topology
	repl         *cluster.Replicator
	regB         *obs.Registry
}

// newClusterPair wires the pair. oracleA serves node a (letting tests
// inject faults on the primary side); node b always gets a clean oracle
// over the same space.
func newClusterPair(t *testing.T, oracleA metric.FallibleOracle) *clusterPair {
	t.Helper()
	cp := &clusterPair{dirA: t.TempDir(), dirB: t.TempDir()}
	if oracleA == nil {
		oracleA = metric.NewOracle(testSpace())
	}

	// Listeners must exist before topologies (the config carries URLs), but
	// servers need the topology — so bind mux shells first and swap the
	// handlers in after construction.
	muxA, muxB := httptest.NewServer(nil), httptest.NewServer(nil)
	t.Cleanup(muxA.Close)
	t.Cleanup(muxB.Close)
	nodes := []cluster.Node{
		{Name: "a", URL: muxA.URL},
		{Name: "b", URL: muxB.URL},
	}
	var err error
	cp.topoA, err = cluster.NewTopology(cluster.Config{Self: "a", Nodes: nodes, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	cp.topoB, err = cluster.NewTopology(cluster.Config{Self: "b", Nodes: nodes, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}

	cp.repl = cluster.NewReplicator(cluster.ReplicatorConfig{
		Topology: cp.topoA,
		Interval: 5 * time.Millisecond,
	})
	t.Cleanup(cp.repl.Close)

	cp.srvA, err = New(Config{
		Oracle:     oracleA,
		CacheDir:   cp.dirA,
		Cluster:    cp.topoA,
		Replicator: cp.repl,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp.regB = obs.NewRegistry()
	cp.srvB, err = New(Config{
		Oracle:   metric.NewOracle(testSpace()),
		CacheDir: cp.dirB,
		Cluster:  cp.topoB,
		Registry: cp.regB,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cp.srvA.Close(); cp.srvB.Close() })
	muxA.Config.Handler = cp.srvA.Handler()
	muxB.Config.Handler = cp.srvB.Handler()
	cp.tsA, cp.tsB = muxA, muxB
	return cp
}

// doDelete issues a DELETE and expects 200.
func doDelete(t *testing.T, url string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d", url, resp.StatusCode)
	}
}

// records replays a closed store file.
func storeRecords(t *testing.T, path string) []cachestore.Record {
	t.Helper()
	s, err := cachestore.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer s.Close()
	var out []cachestore.Record
	if err := s.Replay(func(r cachestore.Record) bool { out = append(out, r); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertPrefix fails unless got is a strict record-for-record prefix of
// full.
func assertPrefix(t *testing.T, got, full []cachestore.Record, label string) {
	t.Helper()
	if len(got) > len(full) {
		t.Fatalf("%s: replica has %d records, primary only %d — not a prefix", label, len(got), len(full))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("%s: record %d diverges: replica %+v, primary %+v", label, i, got[i], full[i])
		}
	}
}

func TestReplAppendProtocol(t *testing.T) {
	cp := newClusterPair(t, nil)
	base := cp.tsB.URL + "/v1/repl/proto"
	meta := api.ReplMeta{Scheme: "tri", Landmarks: 2, Seed: 1, N: testN}

	// Probe an empty replica: cursor 0.
	var ack api.ReplAppendResponse
	post(t, base, api.ReplAppendRequest{Node: "a", Meta: meta, From: 0}, &ack, 200)
	if ack.Seq != 0 {
		t.Fatalf("probe seq = %d, want 0", ack.Seq)
	}
	// Append three records.
	recs := []api.ReplRecord{{I: 0, J: 1, D: 0.5}, {I: 1, J: 2, D: 0.25}, {I: 2, J: 3, D: 0.75}}
	post(t, base, api.ReplAppendRequest{Node: "a", Meta: meta, From: 0, Records: recs}, &ack, 200)
	if ack.Seq != 3 {
		t.Fatalf("append seq = %d, want 3", ack.Seq)
	}
	// Idempotent overlapping retry.
	post(t, base, api.ReplAppendRequest{Node: "a", Meta: meta, From: 1, Records: recs[1:]}, &ack, 200)
	if ack.Seq != 3 {
		t.Fatalf("overlap seq = %d, want 3", ack.Seq)
	}
	// A gap is answered 200 with the rewind cursor, not an HTTP error.
	post(t, base, api.ReplAppendRequest{Node: "a", Meta: meta, From: 9, Records: recs[:1]}, &ack, 200)
	if ack.Seq != 3 {
		t.Fatalf("gap seq = %d, want 3 (rewind cursor)", ack.Seq)
	}
	// Universe mismatch is refused.
	bad := meta
	bad.N = testN + 1
	post(t, base, api.ReplAppendRequest{Node: "a", Meta: bad, From: 3}, nil, 400)

	// Status endpoint reflects the replica.
	var st api.ReplStatusResponse
	httpGetJSON(t, base, &st, 200)
	if st.Seq != 3 || st.Promoted {
		t.Fatalf("status = %+v, want seq 3, not promoted", st)
	}

	// A client create on the replica node adopts the store; replication is
	// then conflicted.
	var info api.SessionInfo
	post(t, cp.tsB.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "proto", Scheme: "tri", Landmarks: 2, Seed: 1}, &info, 200)
	if !info.Created {
		t.Fatal("create did not build the session")
	}
	post(t, base, api.ReplAppendRequest{Node: "a", Meta: meta, From: 3}, nil, 409)
	httpGetJSON(t, base, &st, 200)
	if !st.Promoted {
		t.Fatalf("status after adoption = %+v, want promoted", st)
	}

	// Deleting the session clears the tombstone: replication resumes from
	// the surviving file.
	doDelete(t, cp.tsB.URL+"/v1/sessions/proto")
	post(t, base, api.ReplAppendRequest{Node: "a", Meta: meta, From: 3,
		Records: []api.ReplRecord{{I: 3, J: 4, D: 0.125}}}, &ack, 200)
	if ack.Seq != 4 {
		t.Fatalf("post-eviction append seq = %d, want 4 (resumed from file)", ack.Seq)
	}
}

// TestReplAppendRejectsMalformedRecords sends batches whose later record
// is malformed. The receiver must answer 400 before it touches the store:
// no record of the batch lands, and the cursor does not move.
func TestReplAppendRejectsMalformedRecords(t *testing.T) {
	srv := replicaServer(t)
	good := api.ReplRecord{I: 0, J: 1, D: 0.5}
	for _, bad := range []api.ReplRecord{
		{I: 2, J: 2, D: 0.1},     // self pair
		{I: 2, J: testN, D: 0.1}, // index out of range
		{I: -1, J: 2, D: 0.1},    // negative index
		{I: 2, J: 3, D: -1},      // negative distance
		{I: 2, J: 3, D: api.WireFloat(math.Inf(-1))},
	} {
		if code, _ := replAppend(t, srv, "m", 0, []api.ReplRecord{good, bad}); code != http.StatusBadRequest {
			t.Fatalf("batch with %+v: status %d, want 400", bad, code)
		}
		if code, ack := replAppend(t, srv, "m", 0, nil); code != http.StatusOK || ack.Seq != 0 {
			t.Fatalf("after rejecting %+v: probe = %d, seq %d; want 200, seq 0", bad, code, ack.Seq)
		}
		if got := storeRecords(t, srv.cachePath("m")); len(got) != 0 {
			t.Fatalf("after rejecting %+v: replica holds %+v, want nothing", bad, got)
		}
	}
}

func TestReplRefusedOutsideClusterMode(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheDir: t.TempDir()})
	post(t, ts.URL+"/v1/repl/x",
		api.ReplAppendRequest{Node: "a", Meta: api.ReplMeta{Scheme: "tri", N: testN}}, nil, 400)
}

func TestFailoverPromotionServesReplicatedState(t *testing.T) {
	cp := newClusterPair(t, nil)
	cp.repl.Start()

	// Create on the primary and resolve a workload there.
	var info api.SessionInfo
	post(t, cp.tsA.URL+"/v1/sessions",
		api.CreateSessionRequest{Name: "fo", Scheme: "tri", Landmarks: 4, Seed: 2}, &info, 200)
	type pair struct{ i, j int }
	pairs := []pair{{0, 1}, {5, 9}, {12, 30}, {7, 41}, {3, 22}, {18, 55}}
	dists := map[pair]float64{}
	for _, p := range pairs {
		var d api.DistResponse
		post(t, cp.tsA.URL+"/v1/sessions/fo/dist", api.PairRequest{I: p.i, J: p.j}, &d, 200)
		dists[p] = float64(d.D)
	}

	// Let replication drain, then kill the primary (close its listener and
	// server — the hard way, like SIGKILL, is exercised in the e2e test).
	flushReplicator(t, cp)
	cp.tsA.Close()
	cp.repl.Close()

	// The same session name on the replica node: the first request
	// promotes, answers come from replayed state with zero oracle calls.
	for _, p := range pairs {
		var d api.DistResponse
		post(t, cp.tsB.URL+"/v1/sessions/fo/dist", api.PairRequest{I: p.i, J: p.j}, &d, 200)
		if float64(d.D) != dists[p] {
			t.Fatalf("pair %v: replica answered %v, primary answered %v", p, d.D, dists[p])
		}
	}
	var st api.StatsResponse
	httpGetJSON(t, cp.tsB.URL+"/v1/sessions/fo", &st, 200)
	if st.OracleCalls != 0 {
		t.Fatalf("promoted replica paid %d oracle calls for replicated pairs, want 0", st.OracleCalls)
	}
	if got := cp.regB.Counter(MetricPromotions).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricPromotions, got)
	}

	// The replica's log is a prefix of the dead primary's.
	cp.srvB.Close()
	cp.srvA.Close()
	assertPrefix(t,
		storeRecords(t, filepath.Join(cp.dirB, "fo.cache")),
		storeRecords(t, filepath.Join(cp.dirA, "fo.cache")),
		"failover")
}

// flushReplicator flushes with a test deadline.
func flushReplicator(t *testing.T, cp *clusterPair) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cp.repl.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestPromotedReplicaIsPrefixUnderFaultSchedules(t *testing.T) {
	// Satellite property test: whatever moment replication stops — here, a
	// seeded random point mid-workload on a faulty oracle — the replica's
	// bound store must be an exact record-for-record prefix of the
	// primary's, and the promoted session must serve every replicated pair
	// without new oracle calls. Soundness of failover reduces to this
	// property plus cachestore's replay soundness.
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			space := testSpace()
			inj := faultmetric.New(space, faultmetric.Config{
				Seed:               seed,
				TransientRate:      0.2,
				MaxFailuresPerPair: 2,
			})
			oracle := resilient.New(inj, resilient.RetryOnlyPolicy(seed))
			cp := newClusterPair(t, oracle)
			cp.repl.Start()

			name := fmt.Sprintf("prop%d", seed)
			var info api.SessionInfo
			post(t, cp.tsA.URL+"/v1/sessions",
				api.CreateSessionRequest{Name: name, Scheme: "tri", Landmarks: 3, Seed: seed}, &info, 200)

			rng := rand.New(rand.NewSource(seed))
			stopAfter := 10 + rng.Intn(30) // the "kill point" in requests
			for k := 0; k < 60; k++ {
				i, j := rng.Intn(testN), rng.Intn(testN)
				if i == j {
					continue
				}
				var d api.DistResponse
				post(t, cp.tsA.URL+"/v1/sessions/"+name+"/dist", api.PairRequest{I: i, J: j}, &d, 200)
				if k == stopAfter {
					// Replication dies here; the primary keeps resolving.
					cp.repl.Close()
				}
			}

			// Promote on the replica: any request does it.
			var st api.StatsResponse
			httpGetJSON(t, cp.tsB.URL+"/v1/sessions/"+name, &st, 200)

			// Replay both logs and check the prefix property.
			cp.srvB.Close()
			cp.srvA.Close()
			replica := storeRecords(t, filepath.Join(cp.dirB, name+".cache"))
			primary := storeRecords(t, filepath.Join(cp.dirA, name+".cache"))
			assertPrefix(t, replica, primary, fmt.Sprintf("seed %d", seed))
		})
	}
}
