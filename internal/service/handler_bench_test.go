package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	randv2 "math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"metricprox/internal/cachestore"
	"metricprox/internal/cluster"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/service/api"
)

// BenchmarkHandler times one request through Server.Handler() with no
// network: an httptest recorder stands in for the connection, so an op is
// routing, admission, the body's decode, the session work and the
// response's encode. Request bodies are encoded before the timer starts.
//
//   - search: cmd/proxload's search-hot shape. Planar SF, n = 2,000, a
//     tri session bootstrapped at creation, its NSW graph built by a first
//     /search before the timer, and k = 10 queries drawn Zipf(1.1) over a
//     seeded permutation.
//   - batch: cluster-batch's op mix on one node with a cache directory.
//     Each /batch holds 64 ops over seeded uniform pairs, shuffled: 32
//     bounds, 19 distifless at the median pair distance, 13 dist. Fresh
//     resolutions append to the session's cachestore.
//   - repl: one replication append of cluster.DefaultReplBatch records
//     (seeded uniform pairs at their distances) to a cluster-mode node,
//     each op continuing the replica's log where the last one ended, so
//     every record is appended to its store. Bodies are the sender's
//     bytes, the records as base64, about 14 KB each; use -benchtime Nx
//     to bound them.
func BenchmarkHandler(b *testing.B) {
	const n = 2000
	space := datasets.SFPOIPlanar(n, 1)
	b.Run("search", func(b *testing.B) {
		srv := benchServer(b, Config{Oracle: metric.NewOracle(space)}, "hot")
		path := "/v1/sessions/hot/search"
		if rec := serve(srv, path, api.SearchRequest{Q: 0, K: 10}); rec.Code != http.StatusOK {
			b.Fatalf("graph build: %d %s", rec.Code, rec.Body)
		}
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.1, 1, n-1)
		perm := rng.Perm(n)
		bodies := make([][]byte, b.N)
		for x := range bodies {
			bodies[x] = marshal(b, api.SearchRequest{Q: perm[zipf.Uint64()], K: 10})
		}
		runHandler(b, srv, path, bodies)
	})
	b.Run("batch", func(b *testing.B) {
		srv := benchServer(b, Config{Oracle: metric.NewOracle(space), CacheDir: b.TempDir()}, "b")
		pair := func(intn func(int) int) (int, int) {
			i, j := intn(n), intn(n-1)
			if j >= i {
				j++
			}
			return i, j
		}
		rng := rand.New(rand.NewSource(1))
		ds := make([]float64, 4001)
		for x := range ds {
			ds[x] = space.Distance(pair(rng.Intn))
		}
		sort.Float64s(ds)
		c := api.WireFloat(ds[len(ds)/2])
		bodies := make([][]byte, b.N)
		for x := range bodies {
			rng := randv2.New(randv2.NewPCG(1, uint64(x)))
			ops := make([]api.BatchOp, 64)
			for k := range ops {
				op := api.BatchOp{Op: api.OpDist}
				op.I, op.J = pair(rng.IntN)
				switch {
				case k < 32:
					op.Op = api.OpBounds
				case k < 32+19:
					op.Op, op.C = api.OpDistIfLess, c
				}
				ops[k] = op
			}
			rng.Shuffle(len(ops), func(a, c int) { ops[a], ops[c] = ops[c], ops[a] })
			bodies[x] = marshal(b, api.BatchRequest{Ops: ops})
		}
		runHandler(b, srv, "/v1/sessions/b/batch", bodies)
	})
	b.Run("repl", func(b *testing.B) {
		topo, err := cluster.NewTopology(cluster.Config{Self: "b", Nodes: []cluster.Node{{Name: "b", URL: "http://b.invalid"}}})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := New(Config{Oracle: metric.NewOracle(space), CacheDir: b.TempDir(), Cluster: topo})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		meta := api.ReplMeta{Scheme: "tri", Landmarks: 10, Seed: 1, Bootstrap: true, N: n}
		rng := randv2.New(randv2.NewPCG(2, 0))
		bodies := make([][]byte, b.N)
		for x := range bodies {
			recs := make([]cachestore.Record, cluster.DefaultReplBatch)
			for k := range recs {
				i, j := rng.IntN(n), rng.IntN(n-1)
				if j >= i {
					j++
				}
				recs[k] = cachestore.Record{I: min(i, j), J: max(i, j), Dist: space.Distance(i, j)}
			}
			req := api.ReplAppendRequest{Node: "a", Meta: meta, From: int64(x * len(recs)), Records: rawRecords(recs...)}
			if bodies[x], err = req.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
		runHandler(b, srv, "/v1/repl/r", bodies)
	})
}

// benchServer starts a server and creates the bootstrapped tri session
// name on it, off the clock.
func benchServer(b *testing.B, cfg Config, name string) *Server {
	b.Helper()
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	rec := serve(srv, "/v1/sessions", api.CreateSessionRequest{Name: name, Scheme: "tri", Seed: 1, Bootstrap: true})
	if rec.Code != http.StatusOK {
		b.Fatalf("create %s: %d %s", name, rec.Code, rec.Body)
	}
	return srv
}

// marshal encodes a request body.
func marshal(b *testing.B, v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// runHandler posts bodies[x] to path as op x and fails on any status but
// 200.
func runHandler(b *testing.B, srv *Server, path string, bodies [][]byte) {
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for x := 0; x < b.N; x++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[x])))
		if rec.Code != http.StatusOK {
			b.Fatalf("op %d: %d %s", x, rec.Code, rec.Body)
		}
	}
}
