package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metricprox/internal/cluster"
	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
	"metricprox/internal/service"
	"metricprox/internal/service/api"
)

// cluster-batch: three cachestore-backed nodes, each replicating to one
// peer, behind cluster.Router; four tri sessions spread over the ring.
// One op = one /batch of clusterBatchOps ops over uniform random pairs.
const (
	clusterN        = 2000
	clusterNodes    = 3
	clusterSessions = 4
	clusterRate     = 1300.0 // batches per second, reference machine
	clusterBatchOps = 64
	clusterBounds   = 32 // ops per batch of each kind; the rest are dist
	clusterDistIf   = 19
)

type clusterBatch struct {
	cfg   *config
	space *metric.Vectors
	c     float64 // distifless threshold: the median pair distance
	nops  int
	// slack is the rounding a bound may carry, set from the sessions' cap
	// when the first instance creates them; see boundsSlack.
	slack float64
	// checked counts the batches check verified, and slackUsed the bounds
	// that held only within slack.
	checked, slackUsed atomic.Int64
}

func prepareClusterBatch(cfg *config) (bench, error) {
	n := cfg.size(clusterN)
	space := datasets.SFPOIPlanar(n, systemSeed)
	rng := rand.New(rand.NewSource(systemSeed))
	ds := make([]float64, 4001)
	for x := range ds {
		i, j := randomPair(rng.Intn, n)
		ds[x] = space.Distance(i, j) //proxlint:allow oracleescape -- input generation: the threshold is a property of the dataset, computed before any session exists
	}
	sort.Float64s(ds)
	return &clusterBatch{cfg: cfg, space: space, c: ds[len(ds)/2], nops: cfg.opsFor(clusterRate)}, nil
}

// randomPair draws a uniform pair of distinct objects.
func randomPair(intn func(int) int, n int) (int, int) {
	i := intn(n)
	j := intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

func (b *clusterBatch) ops() int { return b.nops }

// batch is op x's request: a fixed mix of kinds in a seeded order over
// seeded pairs, a pure function of (seed, x).
func (b *clusterBatch) batch(x int) api.BatchRequest {
	rng := randv2.New(randv2.NewPCG(uint64(b.cfg.seed), uint64(x)))
	ops := make([]api.BatchOp, clusterBatchOps)
	for k := range ops {
		i, j := randomPair(rng.IntN, b.space.Len())
		op := api.BatchOp{Op: api.OpDist, I: i, J: j}
		switch {
		case k < clusterBounds:
			op.Op = api.OpBounds
		case k < clusterBounds+clusterDistIf:
			op.Op, op.C = api.OpDistIfLess, api.WireFloat(b.c)
		}
		ops[k] = op
	}
	rng.Shuffle(len(ops), func(a, c int) { ops[a], ops[c] = ops[c], ops[a] })
	return api.BatchRequest{Ops: ops}
}

// batchAnswer is what check needs to verify one /batch.
type batchAnswer struct {
	req  api.BatchRequest
	resp api.BatchResponse
}

func (b *clusterBatch) check(_ int, answer any) (uint64, error) {
	a := answer.(batchAnswer)
	slacked, err := checkBatch(b.space, b.slack, a.req, a.resp)
	if err != nil {
		return 0, err
	}
	b.checked.Add(1)
	b.slackUsed.Add(int64(slacked))
	h := fnv.New64a()
	for k, op := range a.req.Ops {
		res := a.resp.Results[k]
		switch op.Op {
		case api.OpDist:
			fmt.Fprintf(h, "%x;", math.Float64bits(float64(res.D)))
		case api.OpDistIfLess:
			fmt.Fprintf(h, "%t;", res.Less)
		}
	}
	return h.Sum64(), nil
}

// errBatchOp is a batch with a failed op: the op counts as failed.
var errBatchOp = errors.New("cluster-batch: an op of the batch failed")

// boundsSlack is the rounding a bound may carry over a space with
// distance cap maxDist: 8 ulps of the cap. Tri's interval ends are float
// sums and differences of resolved distances, each at most the cap, and
// under the planar Manhattan metric many triples are collinear
// (d(i,k)+d(k,j) = d(i,j) in the reals), so an interval end can land a few
// ulps on the wrong side of the true distance.
func boundsSlack(maxDist float64) float64 {
	return 8 * (math.Nextafter(maxDist, math.Inf(1)) - maxDist)
}

// checkBatch verifies every result of one /batch against the raw space:
// dist is exact, bounds bracket the distance up to slack of rounding,
// distifless is less exactly when the distance is below the threshold,
// and then carries it exactly. It returns how many bounds held only
// within slack.
func checkBatch(space metric.Space, slack float64, req api.BatchRequest, resp api.BatchResponse) (int, error) {
	if len(resp.Results) != len(req.Ops) {
		return 0, &wrongAnswer{fmt.Sprintf("cluster-batch: %d results for %d ops", len(resp.Results), len(req.Ops))}
	}
	slacked := 0
	for k, op := range req.Ops {
		res := resp.Results[k]
		if res.Err != "" {
			return 0, errBatchOp
		}
		d := space.Distance(op.I, op.J) //proxlint:allow oracleescape -- ground truth for output verification, deliberately outside every session
		ok := true
		switch op.Op {
		case api.OpDist:
			ok = fcmp.ExactEq(float64(res.D), d)
		case api.OpBounds:
			lb, ub := float64(res.LB), float64(res.UB)
			ok = lb <= d+slack && d <= ub+slack
			if ok && (lb > d || d > ub) {
				slacked++
			}
		case api.OpDistIfLess:
			ok = res.Less == (d < float64(op.C)) && (!res.Less || fcmp.ExactEq(float64(res.D), d))
		}
		if !ok {
			return 0, &wrongAnswer{fmt.Sprintf("cluster-batch: %s(%d,%d) answered %+v, true distance %v", op.Op, op.I, op.J, res, d)}
		}
	}
	return slacked, nil
}

// verify has nothing left to do: check verified every batch.
func (b *clusterBatch) verify() (int, error) { return int(b.checked.Load()), nil }

// slacked is how many bounds held only within the rounding slack.
func (b *clusterBatch) slacked() int64 { return b.slackUsed.Load() }

// clusterNode is one cluster member.
type clusterNode struct {
	node   cluster.Node
	dir    string
	oracle *metric.Oracle
	reg    *obs.Registry
	repl   *cluster.Replicator
	srv    *service.Server
	web    *server
}

type clusterInstance struct {
	b       *clusterBatch
	nodes   []*clusterNode
	topo    *cluster.Topology
	rreg    *obs.Registry
	router  *server
	tp      *http.Transport // load clients, and the lag sampler's probes
	upTP    *http.Transport // router upstream
	replTP  *http.Transport // replication streams
	hcs     []*http.Client
	cts     []*clientTrace
	names   []string
	calls0  int64
	sent0   int64
	fail0   int64
	bytes0  int64
	stats0  core.Stats
	stop    chan struct{}
	sampler sync.WaitGroup
	lagMax  int64
	lagErr  error
}

func (b *clusterBatch) setup(ctx context.Context, tr *tracer) (instance, error) {
	in := &clusterInstance{b: b, tp: newTransport(), upTP: newTransport(), replTP: newTransport(), rreg: obs.NewRegistry()}
	if err := in.start(tr); err != nil {
		in.close()
		return nil, err
	}
	if err := in.prepare(ctx, tr); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// start brings up the nodes, their replicators and the router.
func (in *clusterInstance) start(tr *tracer) error {
	// Bind every node first: each topology names all members' URLs.
	var lis []net.Listener
	var members []cluster.Node
	served := 0
	defer func() {
		for _, l := range lis[served:] {
			l.Close()
		}
	}()
	for i := 0; i < clusterNodes; i++ {
		l, err := listen()
		if err != nil {
			return err
		}
		lis = append(lis, l)
		members = append(members, cluster.Node{Name: string(rune('a' + i)), URL: "http://" + l.Addr().String()})
	}
	for i, m := range members {
		topo, err := cluster.NewTopology(cluster.Config{Self: m.Name, Nodes: members, Replicas: 1})
		if err != nil {
			return err
		}
		nd := &clusterNode{node: m, oracle: metric.NewOracle(tr.space(in.b.space)), reg: obs.NewRegistry()}
		in.nodes = append(in.nodes, nd)
		if nd.dir, err = os.MkdirTemp("", "proxload-cluster-"+m.Name+"-"); err != nil {
			return err
		}
		nd.repl = cluster.NewReplicator(cluster.ReplicatorConfig{
			Topology: topo, Registry: nd.reg,
			HTTPClient: &http.Client{Transport: in.replTP, Timeout: 5 * time.Second},
		})
		nd.srv, err = service.New(service.Config{Oracle: nd.oracle, CacheDir: nd.dir, Cluster: topo, Replicator: nd.repl})
		if err != nil {
			return err
		}
		nd.web = serve(lis[i], tr.wrapHandler(kNode, nd.srv.Handler()))
		served++
		nd.repl.Start()
	}
	topo, err := cluster.NewTopology(cluster.Config{Nodes: members, Replicas: 1})
	if err != nil {
		return err
	}
	in.topo = topo
	var up http.RoundTripper = in.upTP
	if tr != nil {
		up = &rtTrace{base: in.upTP, t: tr}
	}
	router := cluster.NewRouter(cluster.RouterConfig{Topology: topo, HTTPClient: &http.Client{Transport: up}, Registry: in.rreg})
	l, err := listen()
	if err != nil {
		return err
	}
	in.router = serve(l, tr.wrapHandler(kRouter, router.Handler()))
	return nil
}

// prepare creates the sessions through the router and warms the clients.
func (in *clusterInstance) prepare(ctx context.Context, tr *tracer) error {
	for c := 0; c < in.b.cfg.clients; c++ {
		hc, ct := httpClient(in.tp, tr)
		in.hcs, in.cts = append(in.hcs, hc), append(in.cts, ct)
	}
	in.names = spreadSessions(in.topo, clusterSessions)
	for _, name := range in.names {
		create := api.CreateSessionRequest{Name: name, Scheme: "tri", Seed: systemSeed, Bootstrap: true}
		var info api.SessionInfo
		if _, err := call(ctx, in.hcs[0], http.MethodPost, in.router.url+"/v1/sessions", create, &info); err != nil {
			return err
		}
		// Set-up runs before any op is checked, so check reads the slack
		// without a lock.
		in.b.slack = max(in.b.slack, boundsSlack(float64(info.MaxDistance)))
	}
	// The replicas hold every bootstrap record before timing starts, so
	// the lag probe sees only what the ops add.
	if _, err := in.flush(ctx); err != nil {
		return err
	}
	return warmUp(ctx, in.hcs, in.router.url+"/healthz")
}

// spreadSessions picks k session names whose primaries cover every node
// before any node hosts a second one.
func spreadSessions(topo *cluster.Topology, k int) []string {
	used := map[string]bool{}
	var names []string
	for i := 0; len(names) < k; i++ {
		name := fmt.Sprintf("batch-%d", i)
		primary := topo.Owners(name)[0].Name
		if used[primary] && len(used) < len(topo.Nodes()) {
			continue
		}
		used[primary] = true
		names = append(names, name)
	}
	return names
}

func (in *clusterInstance) clients() []client {
	out := make([]client, len(in.hcs))
	for c := range in.hcs {
		hc := in.hcs[c]
		out[c] = client{ct: in.cts[c], op: func(ctx context.Context, x int) (any, error) {
			a := batchAnswer{req: in.b.batch(x)}
			url := in.router.url + "/v1/sessions/" + in.names[x%len(in.names)] + "/batch"
			_, err := call(ctx, hc, http.MethodPost, url, a.req, &a.resp)
			return a, err
		}}
	}
	return out
}

func (in *clusterInstance) calls() int64 {
	var total int64
	for _, nd := range in.nodes {
		total += nd.oracle.Calls()
	}
	return total
}

// replSent sums the records every replicator's peers acknowledged.
func (in *clusterInstance) replSent() int64 {
	var total int64
	for _, nd := range in.nodes {
		for _, peer := range in.nodes {
			total += nd.reg.Counter(cluster.MetricReplSentRecords, obs.Label{Key: "peer", Value: peer.node.Name}).Value()
		}
	}
	return total
}

func (in *clusterInstance) dirs() []string {
	var dirs []string
	for _, nd := range in.nodes {
		dirs = append(dirs, nd.dir)
	}
	return dirs
}

// stats sums the sessions' statistics, read through the router.
func (in *clusterInstance) stats(ctx context.Context) (core.Stats, error) {
	var sum core.Stats
	for _, name := range in.names {
		var st api.StatsResponse
		if _, err := call(ctx, in.hcs[0], http.MethodGet, in.router.url+"/v1/sessions/"+name, nil, &st); err != nil {
			return sum, err
		}
		s := wireStats(st)
		sum.BoundProbes += s.BoundProbes
		sum.SavedComparisons += s.SavedComparisons
		sum.ResolvedComparisons += s.ResolvedComparisons
		sum.CacheHits += s.CacheHits
	}
	return sum, nil
}

func (in *clusterInstance) begin(ctx context.Context) error {
	var err error
	if in.stats0, err = in.stats(ctx); err != nil {
		return err
	}
	if in.bytes0, err = cacheBytes(in.dirs()...); err != nil {
		return err
	}
	in.calls0, in.sent0 = in.calls(), in.replSent()
	in.fail0 = in.rreg.Counter(cluster.MetricRouterFailovers).Value()
	in.stop = make(chan struct{})
	in.sampler.Add(1)
	go in.sampleLag(ctx)
	return nil
}

// sampleLag polls, every 100 ms until stop, how far each session's
// replica trails its primary: the primary's oracle calls (every
// resolution is one log record) minus the replica's log length.
func (in *clusterInstance) sampleLag(ctx context.Context) {
	defer in.sampler.Done()
	hc := &http.Client{Transport: in.tp}
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-in.stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, name := range in.names {
			owners := in.topo.Owners(name)
			var st api.StatsResponse
			if _, err := call(ctx, hc, http.MethodGet, owners[0].URL+"/v1/sessions/"+name, nil, &st); err != nil {
				in.lagErr = err
				return
			}
			var rs api.ReplStatusResponse
			// A replica that has received nothing yet answers 404: seq 0.
			_, _ = call(ctx, hc, http.MethodGet, owners[1].URL+"/v1/repl/"+name, nil, &rs)
			in.lagMax = max(in.lagMax, st.OracleCalls-rs.Seq)
		}
	}
}

func (in *clusterInstance) end(ctx context.Context, r *round) error {
	r.calls = in.calls() - in.calls0
	sent := in.replSent() - in.sent0
	close(in.stop)
	in.sampler.Wait()
	if in.lagErr != nil {
		return fmt.Errorf("replication lag probe: %w", in.lagErr)
	}
	flushS, err := in.flush(ctx)
	if err != nil {
		return err
	}
	r.layer["cluster.repl_flush_s"] = flushS
	r.layer["cluster.repl_records_per_s"] = float64(sent) / r.wall.Seconds()
	r.layer["cluster.repl_lag_records_max"] = float64(in.lagMax)
	r.layer["cluster.failovers"] = float64(in.rreg.Counter(cluster.MetricRouterFailovers).Value() - in.fail0)
	size, err := cacheBytes(in.dirs()...)
	if err != nil {
		return err
	}
	r.layer["cachestore.bytes_per_op"] = float64(size-in.bytes0) / float64(r.ops)
	st, err := in.stats(ctx)
	if err != nil {
		return err
	}
	coreLayers(r, in.stats0, st)
	return nil
}

// flush drains every replicator and returns how long that took.
func (in *clusterInstance) flush(ctx context.Context) (float64, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	start := time.Now()
	for _, nd := range in.nodes {
		if err := nd.repl.Flush(ctx); err != nil {
			return 0, fmt.Errorf("replication flush: %w", err)
		}
	}
	return time.Since(start).Seconds(), nil
}

func (in *clusterInstance) close() {
	if in.router != nil {
		in.router.close()
	}
	for _, nd := range in.nodes {
		if nd.repl != nil {
			nd.repl.Close()
		}
	}
	for _, nd := range in.nodes {
		if nd.web != nil {
			nd.web.close()
		}
		if nd.srv != nil {
			nd.srv.Close()
		}
		os.RemoveAll(nd.dir)
	}
	for _, tp := range []*http.Transport{in.tp, in.upTP, in.replTP} {
		tp.CloseIdleConnections()
	}
}
