package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
	"metricprox/internal/proxclient"
	"metricprox/internal/service"
)

// Both kNN workloads run one op = prox.KNNRow(view, u, knnK) for u walking
// a seeded permutation of the universe.
const knnK = 10

// knn-edit: DNA sequences under Levenshtein distance (a real CPU-bound
// oracle), one persistent server session, and a proxclient session per
// load client attached to it.
const (
	editN      = 700
	editLen    = 128
	editRate   = 45.0 // rows per second, reference machine
	editSample = 16   // rows verified by brute force
)

// knn-inproc: one SharedSession over the clustered planar UrbanGB
// surrogate, no network.
const (
	inprocN      = 3000
	inprocRate   = 700.0 // rows per second, reference machine
	inprocSample = 32
)

// knnBench holds what both kNN workloads share: the space, the rows asked,
// and the sampled rows awaiting brute-force verification.
type knnBench struct {
	cfg    *config
	space  metric.Space
	order  []int // the object each op asks for
	nops   int   // per round
	sample map[int]bool
	mu     sync.Mutex
	rows   map[int][][]prox.Neighbor // sampled object -> answers seen
}

// newKNNBench draws every round's rows: distinct objects within a round,
// a fresh seeded draw per round.
func newKNNBench(cfg *config, space metric.Space, rate float64, sample int) *knnBench {
	n := space.Len()
	rng := rand.New(rand.NewSource(cfg.seed))
	ops := min(cfg.opsFor(rate), n)
	b := &knnBench{cfg: cfg, space: space, nops: ops, rows: map[int][][]prox.Neighbor{}}
	for i := 0; i < cfg.rounds; i++ {
		b.order = append(b.order, rng.Perm(n)[:ops]...)
	}
	b.sample = sampleOps(rng, len(b.order), sample)
	return b
}

func (b *knnBench) ops() int { return b.nops }

// object is the row op x asks for.
func (b *knnBench) object(x int) int { return b.order[x] }

func (b *knnBench) check(x int, answer any) (uint64, error) {
	row := answer.([]prox.Neighbor)
	if b.sample[x] {
		b.mu.Lock()
		b.rows[b.object(x)] = append(b.rows[b.object(x)], row)
		b.mu.Unlock()
	}
	h := fnv.New64a()
	for _, nb := range row {
		fmt.Fprintf(h, "%d:%x;", nb.ID, math.Float64bits(nb.Dist))
	}
	return h.Sum64(), nil
}

func (b *knnBench) verify() (int, error) {
	checked := 0
	for u, answers := range b.rows {
		want := bruteKNN(b.space, u, knnK)
		for _, got := range answers {
			if err := sameRow(u, got, want); err != nil {
				return 0, err
			}
			checked++
		}
	}
	return checked, nil
}

// bruteKNN is the reference kNN row of u: every distance from the raw
// space, sorted by the canonical (distance, id) rule.
func bruteKNN(space metric.Space, u, k int) []prox.Neighbor {
	row := make([]prox.Neighbor, 0, space.Len()-1)
	for v := 0; v < space.Len(); v++ {
		if v != u {
			row = append(row, prox.Neighbor{ID: v, Dist: space.Distance(u, v)}) //proxlint:allow oracleescape -- brute-force reference for output verification, deliberately outside every session
		}
	}
	sort.Slice(row, func(a, b int) bool { return fcmp.TieLess(row[a].Dist, row[a].ID, row[b].Dist, row[b].ID) })
	return row[:min(k, len(row))]
}

// sameRow requires got to hold exactly want's ids and bit-identical
// distances, in order.
func sameRow(u int, got, want []prox.Neighbor) error {
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i].ID == want[i].ID && fcmp.ExactEq(got[i].Dist, want[i].Dist)
	}
	if !ok {
		return &wrongAnswer{fmt.Sprintf("kNN row %d = %v, brute force gives %v", u, got, want)}
	}
	return nil
}

// --- knn-edit ---

func prepareKNNEdit(cfg *config) (bench, error) {
	_, space := datasets.DNA(cfg.size(editN), editLen, systemSeed)
	return &knnEdit{newKNNBench(cfg, space, editRate, editSample)}, nil
}

type knnEdit struct{ *knnBench }

type knnEditInstance struct {
	b      *knnBench
	dir    string
	oracle *metric.Oracle
	srv    *service.Server
	web    *server
	tp     *http.Transport
	sess   []*proxclient.Session
	views  []core.View
	cts    []*clientTrace
	calls0 int64
	stats0 core.Stats
	bytes0 int64
}

func (b *knnEdit) setup(ctx context.Context, tr *tracer) (instance, error) {
	dir, err := os.MkdirTemp("", "proxload-knn-edit-")
	if err != nil {
		return nil, err
	}
	in := &knnEditInstance{b: b.knnBench, dir: dir, oracle: metric.NewOracle(tr.space(b.space)), tp: newTransport()}
	if in.srv, err = service.New(service.Config{Oracle: in.oracle, CacheDir: dir}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := listen()
	if err != nil {
		in.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	in.web = serve(l, tr.wrapHandler(kNode, in.srv.Handler()))
	if err := in.prepare(ctx, tr); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// prepare creates the bootstrapped server session from client 0 and
// attaches every other client to it, each with its own mirror.
func (in *knnEditInstance) prepare(ctx context.Context, tr *tracer) error {
	var hcs []*http.Client
	for c := 0; c < in.b.cfg.clients; c++ {
		hc, ct := httpClient(in.tp, tr)
		pc := proxclient.New(in.web.url, proxclient.Options{HTTPClient: hc})
		s, err := proxclient.CreateSession(ctx, pc, "edit", "tri",
			proxclient.SessionOptions{Seed: systemSeed, Bootstrap: true})
		if err != nil {
			return err
		}
		var v core.View = s
		if ct != nil {
			v = traceView(s, ct)
		}
		hcs = append(hcs, hc)
		in.sess, in.views, in.cts = append(in.sess, s), append(in.views, v), append(in.cts, ct)
	}
	return warmUp(ctx, hcs, in.web.url+"/healthz")
}

func (in *knnEditInstance) clients() []client {
	out := make([]client, len(in.sess))
	for c := range in.sess {
		s, v := in.sess[c], in.views[c]
		out[c] = client{ct: in.cts[c], op: func(_ context.Context, x int) (any, error) {
			row := prox.KNNRow(v, in.b.object(x), knnK)
			if err := s.OracleErr(); err != nil {
				return nil, err
			}
			return row, nil
		}}
	}
	return out
}

func (in *knnEditInstance) begin(context.Context) error {
	in.calls0, in.stats0 = in.oracle.Calls(), in.sess[0].Stats()
	var err error
	in.bytes0, err = cacheBytes(in.dir)
	return err
}

func (in *knnEditInstance) end(_ context.Context, r *round) error {
	r.calls = in.oracle.Calls() - in.calls0
	coreLayers(r, in.stats0, in.sess[0].Stats())
	size, err := cacheBytes(in.dir)
	r.layer["cachestore.bytes_per_op"] = float64(size-in.bytes0) / float64(r.ops)
	return err
}

func (in *knnEditInstance) close() {
	in.web.close()
	in.srv.Close()
	in.tp.CloseIdleConnections()
	os.RemoveAll(in.dir)
}

// --- knn-inproc ---

func prepareKNNInproc(cfg *config) (bench, error) {
	space := datasets.UrbanGBPlanar(cfg.size(inprocN), systemSeed)
	return &knnInproc{newKNNBench(cfg, space, inprocRate, inprocSample)}, nil
}

type knnInproc struct{ *knnBench }

type knnInprocInstance struct {
	b      *knnBench
	oracle *metric.Oracle
	shared *core.SharedSession
	views  []core.View
	cts    []*clientTrace
	calls0 int64
	stats0 core.Stats
}

func (b *knnInproc) setup(_ context.Context, tr *tracer) (instance, error) {
	n := b.space.Len()
	in := &knnInprocInstance{b: b.knnBench, oracle: metric.NewOracle(tr.space(b.space))}
	lms := core.PickLandmarks(n, landmarkCount(n), systemSeed)
	s := core.NewFallibleSessionWithLandmarks(in.oracle, core.SchemeTri, lms)
	if _, err := s.BootstrapErr(lms); err != nil {
		return nil, err
	}
	in.shared = core.Share(s)
	for c := 0; c < b.cfg.clients; c++ {
		var v core.View = in.shared
		var ct *clientTrace
		if tr != nil {
			ct = tr.client()
			v = traceView(in.shared, ct)
		}
		in.views, in.cts = append(in.views, v), append(in.cts, ct)
	}
	return in, nil
}

func (in *knnInprocInstance) clients() []client {
	out := make([]client, len(in.views))
	for c := range in.views {
		v := in.views[c]
		out[c] = client{ct: in.cts[c], op: func(_ context.Context, x int) (any, error) {
			row := prox.KNNRow(v, in.b.object(x), knnK)
			if err := in.shared.OracleErr(); err != nil {
				return nil, err
			}
			return row, nil
		}}
	}
	return out
}

func (in *knnInprocInstance) begin(context.Context) error {
	in.calls0, in.stats0 = in.oracle.Calls(), in.shared.Stats()
	return nil
}

func (in *knnInprocInstance) end(_ context.Context, r *round) error {
	r.calls = in.oracle.Calls() - in.calls0
	coreLayers(r, in.stats0, in.shared.Stats())
	return nil
}

func (in *knnInprocInstance) close() {}
