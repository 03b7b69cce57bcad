package cluster_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	randv2 "math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"metricprox/internal/cluster"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/service"
	"metricprox/internal/service/api"
)

// handlerTransport is an in-memory http.RoundTripper: it serves each
// request with h and hands back the recorded response.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// BenchmarkRouterHop times one cluster-batch /batch through the router's
// handler in front of a node's handler, joined by an in-memory
// RoundTripper: no socket, so an op is the router's body read, its
// upstream request, the node's work and answer, and the relay. The node
// is cmd/proxload's cluster-batch shape on one member: planar SF at
// n = 2,000, a bootstrapped tri session with a cache directory, and 64
// ops per /batch over seeded uniform pairs, shuffled: 32 bounds, 19
// distifless at the median pair distance, 13 dist. Request bodies are
// encoded before the timer starts.
func BenchmarkRouterHop(b *testing.B) {
	const n = 2000
	space := datasets.SFPOIPlanar(n, 1)
	node, err := service.New(service.Config{Oracle: metric.NewOracle(space), CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { node.Close() })
	topo, err := cluster.NewTopology(cluster.Config{Nodes: []cluster.Node{{Name: "a", URL: "http://a.invalid"}}})
	if err != nil {
		b.Fatal(err)
	}
	router := cluster.NewRouter(cluster.RouterConfig{
		Topology:   topo,
		HTTPClient: &http.Client{Transport: handlerTransport{node.Handler()}},
	}).Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		router.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	create, _ := json.Marshal(api.CreateSessionRequest{Name: "b", Scheme: "tri", Seed: 1, Bootstrap: true})
	if rec := post("/v1/sessions", create); rec.Code != http.StatusOK {
		b.Fatalf("create: %d %s", rec.Code, rec.Body)
	}

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
		if bodies[x], err = json.Marshal(api.BatchRequest{Ops: ops}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for x := 0; x < b.N; x++ {
		if rec := post("/v1/sessions/b/batch", bodies[x]); rec.Code != http.StatusOK {
			b.Fatalf("op %d: %d %s", x, rec.Code, rec.Body)
		}
	}
}
