package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/nsw"
	"metricprox/internal/service"
	"metricprox/internal/service/api"
)

// search-hot: one metricproxd server over the planar SF surrogate, a tri
// session bootstrapped at creation, and its NSW graph built by the first
// /search (in set-up). Query objects are Zipf(1.1) over a seeded
// permutation.
const (
	searchN      = 2000
	searchRate   = 5000.0 // queries per second, reference machine
	searchK      = 10
	searchSample = 256 // queries per run verified against an in-process build
)

type searchHot struct {
	cfg     *config
	space   *metric.Vectors
	nops    int   // per round
	queries []int // per op of every round
	sample  map[int]bool
	mu      sync.Mutex
	answers []searchAnswer
}

type searchAnswer struct {
	q    int
	body []byte
}

func prepareSearchHot(cfg *config) (bench, error) {
	n := cfg.size(searchN)
	ops := cfg.opsFor(searchRate)
	total := ops * cfg.rounds
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	b := &searchHot{
		cfg:     cfg,
		space:   datasets.SFPOIPlanar(n, systemSeed),
		nops:    ops,
		queries: make([]int, total),
		sample:  sampleOps(rng, total, searchSample),
	}
	var perm []int
	for x := range b.queries {
		if x%ops == 0 {
			// Each round has its own hot objects: the few hottest decide
			// most of a round's oracle calls, so one permutation per run
			// would make the run's calls hinge on them.
			perm = rng.Perm(n)
		}
		b.queries[x] = perm[zipf.Uint64()]
	}
	return b, nil
}

// sampleOps picks min(k, ops) distinct op indices.
func sampleOps(rng *rand.Rand, ops, k int) map[int]bool {
	out := make(map[int]bool, k)
	for _, x := range rng.Perm(ops)[:min(k, ops)] {
		out[x] = true
	}
	return out
}

func (b *searchHot) ops() int { return b.nops }

type searchInstance struct {
	b       *searchHot
	srv     *service.Server
	web     *server
	tp      *http.Transport
	oracle  *metric.Oracle
	hcs     []*http.Client
	cts     []*clientTrace
	url     string
	calls0  int64
	stats0  api.StatsResponse
	buildS  float64
	session string
}

func (b *searchHot) setup(ctx context.Context, tr *tracer) (instance, error) {
	in := &searchInstance{b: b, oracle: metric.NewOracle(tr.space(b.space)), tp: newTransport(), session: "hot"}
	var err error
	if in.srv, err = service.New(service.Config{Oracle: in.oracle}); err != nil {
		return nil, err
	}
	l, err := listen()
	if err != nil {
		in.srv.Close()
		return nil, err
	}
	in.web = serve(l, tr.wrapHandler(kNode, in.srv.Handler()))
	in.url = in.web.url + "/v1/sessions/" + in.session
	for c := 0; c < b.cfg.clients; c++ {
		hc, ct := httpClient(in.tp, tr)
		in.hcs, in.cts = append(in.hcs, hc), append(in.cts, ct)
	}
	if err := in.prepare(ctx); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// prepare creates and bootstraps the session, pays the lazy graph build
// with the first search, and warms the clients' connections.
func (in *searchInstance) prepare(ctx context.Context) error {
	create := api.CreateSessionRequest{Name: in.session, Scheme: "tri", Seed: systemSeed, Bootstrap: true}
	if _, err := call(ctx, in.hcs[0], http.MethodPost, in.web.url+"/v1/sessions", create, nil); err != nil {
		return err
	}
	start := time.Now()
	var first api.SearchResponse
	if _, err := call(ctx, in.hcs[0], http.MethodPost, in.url+"/search", api.SearchRequest{Q: 0, K: searchK}, &first); err != nil {
		return err
	}
	in.buildS = time.Since(start).Seconds()
	if !first.Built {
		return fmt.Errorf("search-hot: first /search did not build the graph")
	}
	return warmUp(ctx, in.hcs, in.web.url+"/healthz")
}

func (in *searchInstance) clients() []client {
	out := make([]client, len(in.hcs))
	for c := range in.hcs {
		hc := in.hcs[c]
		out[c] = client{ct: in.cts[c], op: func(ctx context.Context, x int) (any, error) {
			return call(ctx, hc, http.MethodPost, in.url+"/search",
				api.SearchRequest{Q: in.b.queries[x], K: searchK}, nil)
		}}
	}
	return out
}

func (in *searchInstance) begin(ctx context.Context) error {
	in.calls0 = in.oracle.Calls()
	_, err := call(ctx, in.hcs[0], http.MethodGet, in.url, nil, &in.stats0)
	return err
}

func (in *searchInstance) end(ctx context.Context, r *round) error {
	r.calls = in.oracle.Calls() - in.calls0
	r.layer["nsw.build_s"] = in.buildS
	var st api.StatsResponse
	if _, err := call(ctx, in.hcs[0], http.MethodGet, in.url, nil, &st); err != nil {
		return err
	}
	coreLayers(r, wireStats(in.stats0), wireStats(st))
	return nil
}

func (in *searchInstance) close() {
	in.web.close()
	in.srv.Close()
	in.tp.CloseIdleConnections()
}

// wireStats converts the stats endpoint's answer to core.Stats.
func wireStats(s api.StatsResponse) core.Stats {
	return core.Stats{
		OracleCalls:         s.OracleCalls,
		BoundProbes:         s.BoundProbes,
		SavedComparisons:    s.SavedComparisons,
		ResolvedComparisons: s.ResolvedComparisons,
		CacheHits:           s.CacheHits,
	}
}

func (b *searchHot) check(x int, answer any) (uint64, error) {
	body := answer.([]byte)
	if b.sample[x] {
		b.mu.Lock()
		b.answers = append(b.answers, searchAnswer{q: b.queries[x], body: body})
		b.mu.Unlock()
	}
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64(), nil
}

// verify rebuilds the server's graph in-process — the same space, scheme,
// landmarks and nsw parameters the service uses — and requires every
// sampled /search response to equal the encoding of the in-process
// answer byte for byte.
func (b *searchHot) verify() (int, error) {
	n := b.space.Len()
	p := nsw.Params{Seed: systemSeed, Landmarks: core.PickLandmarks(n, landmarkCount(n), systemSeed)}
	s := core.NewFallibleSessionWithLandmarks(metric.NewOracle(b.space), core.SchemeTri, p.Landmarks)
	if _, err := s.BootstrapErr(p.Landmarks); err != nil {
		return 0, err
	}
	g, err := nsw.Build(s, p)
	if err != nil {
		return 0, err
	}
	sort.Slice(b.answers, func(i, j int) bool { return b.answers[i].q < b.answers[j].q })
	want := map[int][]byte{}
	for _, a := range b.answers {
		ref, ok := want[a.q]
		if !ok {
			if ref, err = searchBody(g, s, a.q); err != nil {
				return 0, err
			}
			want[a.q] = ref
		}
		if !bytes.Equal(a.body, ref) {
			return 0, &wrongAnswer{fmt.Sprintf("search-hot: /search q=%d answered %s, in-process build gives %s",
				a.q, bytes.TrimSpace(a.body), bytes.TrimSpace(ref))}
		}
	}
	return len(b.answers), nil
}

// searchBody is the response the service writes for q on graph g.
func searchBody(g *nsw.Graph, v core.View, q int) ([]byte, error) {
	res, err := g.Search(v, q, searchK, nsw.DefaultEfConstruction)
	if err != nil {
		return nil, err
	}
	resp := api.SearchResponse{Neighbors: make([]api.WireNeighbor, len(res)), EfSearch: nsw.DefaultEfConstruction}
	for i, nb := range res {
		resp.Neighbors[i] = api.WireNeighbor{ID: nb.ID, D: api.WireFloat(nb.Dist)}
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}
