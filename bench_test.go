// Package metricprox's root benchmarks: one testing.B benchmark per table
// and figure of the paper's evaluation (run the cmd/proxbench CLI for the
// full formatted reproduction), plus ablation benchmarks for the design
// choices called out in DESIGN.md §9.
package metricprox_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"metricprox/internal/bounds"
	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/experiments"
	"metricprox/internal/metric"
	"metricprox/internal/pgraph"
	"metricprox/internal/prox"
)

// BenchmarkExperiments runs every registered experiment at quick scale,
// one sub-benchmark per experiment id (BenchmarkExperiments/fig4a, …), in
// the registry's paper order; -bench 'Experiments/fig4a$' picks one.
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{Quick: true, Seed: 42}
	for _, r := range experiments.All() {
		b.Run(r.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tb := r.Run(cfg); len(tb.Rows) == 0 {
					b.Fatalf("%s produced no rows", r.ID)
				}
			}
		})
	}
}

// BenchmarkSearchGraphBuildIF / BenchmarkSearchGraphBuildNaive are the
// ext13 gate pair: the same NSW construction over the planar SF
// surrogate, IF-driven (Tri session, landmark-seeded beams, bootstrap
// included) versus naive (raw oracle, textbook single entry). Each
// reports its deterministic oracle-call count as calls/op, and benchgate
// compares that unit, so the gated "speedup" — naive calls ÷ IF calls —
// is an exact call ratio, independent of machine and scheduler; CI's
// bench-smoke job enforces ≥1.5× via:
//
//	go test -run '^$' -bench 'SearchGraphBuild' -benchtime 1x . | benchgate \
//	    -subject BenchmarkSearchGraphBuildIF \
//	    -base BenchmarkSearchGraphBuildNaive \
//	    -unit calls/op -min 1.5 -out BENCH_searchgraph.json
func BenchmarkSearchGraphBuildIF(b *testing.B) {
	var calls int64
	for i := 0; i < b.N; i++ {
		calls = experiments.SearchGraphIFBuildCalls(searchGraphN, searchGraphSeed)
	}
	b.ReportMetric(float64(calls), "calls/op")
}

func BenchmarkSearchGraphBuildNaive(b *testing.B) {
	var calls int64
	for i := 0; i < b.N; i++ {
		calls = experiments.SearchGraphNaiveBuildCalls(searchGraphN, searchGraphSeed)
	}
	b.ReportMetric(float64(calls), "calls/op")
}

// The gated workload's scale: large enough that the one-time landmark
// bootstrap (≈ 9·n calls at this size) is amortised, small enough to
// run in CI per push.
const (
	searchGraphN    = 400
	searchGraphSeed = 1
)

// BenchmarkClusterWarmReplay / BenchmarkClusterColdSession are the
// cluster-failover gate pair: the same server-side kNN build on a node
// that inherited replicated bound state from a dead primary versus a
// node starting from nothing. Each reports its deterministic oracle-call
// count as calls/op, so the benchgate "speedup" — cold calls ÷ warm
// calls, compared in that unit — is an exact call ratio; CI's
// bench-smoke job enforces ≥1.5× via:
//
//	go test -run '^$' -bench 'Cluster(WarmReplay|ColdSession)' -benchtime 1x . | benchgate \
//	    -subject BenchmarkClusterWarmReplay \
//	    -base BenchmarkClusterColdSession \
//	    -unit calls/op -min 1.5 -out BENCH_cluster.json
func BenchmarkClusterWarmReplay(b *testing.B) {
	var calls int64
	for i := 0; i < b.N; i++ {
		calls = experiments.ClusterWarmReplayCalls(clusterBenchN, clusterBenchSeed)
	}
	b.ReportMetric(float64(calls), "calls/op")
}

func BenchmarkClusterColdSession(b *testing.B) {
	var calls int64
	for i := 0; i < b.N; i++ {
		calls = experiments.ClusterColdSessionCalls(clusterBenchN, clusterBenchSeed)
	}
	b.ReportMetric(float64(calls), "calls/op")
}

// The cluster gate's scale: big enough that the kNN build resolves far
// more pairs than the pre-kill workload covers (so the warm number is
// honest work, not zero), small enough for per-push CI.
const (
	clusterBenchN    = 200
	clusterBenchSeed = 1
)

// --- micro-benchmarks of the core primitives ---

func BenchmarkSessionLessTri(b *testing.B) { benchSessionLess(b, core.SchemeTri) }

func BenchmarkSessionLessSPLUB(b *testing.B) { benchSessionLess(b, core.SchemeSPLUB) }

func benchSessionLess(b *testing.B, scheme core.Scheme) {
	m := datasets.SFPOI(256, 1)
	o := metric.NewOracle(m)
	s := core.NewSession(o, scheme)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y, z, w := rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256)
		if x == y || z == w {
			continue
		}
		s.Less(x, y, z, w)
	}
}

// BenchmarkNearMetricAuditOn measures the paper's canonical workload — a
// Tri-scheme kNN-graph build — with the violation auditor attached, over
// a true metric (no violations: the common case the overhead budget is
// written for). The auditor rides only the resolve path, checking the
// triangles the scheme's own adjacency already enumerates; CI's
// bench-smoke job gates this at ≥0.95× of BenchmarkNearMetricAuditOff
// via cmd/benchgate (report artifact: BENCH_nearmetric.json). Compare
// the two from separate go test invocations: in a shared process the
// first-run benchmark pays the warm-up and the ratio reads as phantom
// overhead.
func BenchmarkNearMetricAuditOn(b *testing.B) { benchNearMetricAudit(b, true) }

// BenchmarkNearMetricAuditOff is the baseline for the auditor-overhead
// gate: the identical build with no auditor attached.
func BenchmarkNearMetricAuditOff(b *testing.B) { benchNearMetricAudit(b, false) }

func benchNearMetricAudit(b *testing.B, audit bool) {
	const n, k = 128, 4
	m := datasets.RandomMetric(n, 7)
	o := metric.NewOracle(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var opts []core.Option
		if audit {
			opts = append(opts, core.WithAuditor(metric.NewAuditor(0)))
		}
		// A fresh session per iteration so the resolutions — the only
		// places the auditor does work — happen anew each time.
		s := core.NewSession(o, core.SchemeTri, opts...)
		prox.KNNGraph(s, k)
	}
}

// --- ablation benchmarks (DESIGN.md §9) ---

// BenchmarkTriBoundsCSR measures the Tri Scheme query as shipped: a
// sorted-merge intersection over the graph's sorted adjacency rows.
func BenchmarkTriBoundsCSR(b *testing.B) {
	g, pairs := triWorkload()
	tri := bounds.NewTri(g, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		tri.Bounds(p[0], p[1])
	}
}

// BenchmarkTriBoundsBatch measures the batch entry point on the same
// workload: all 1024 query pairs answered per outer iteration, in input
// order. The pairs are drawn at random, about 2 per anchor over 512
// objects, so almost every pair starts a run of its own and pays its own
// stamp and cost check before its probe: this is the batch entry point's
// worst shape, not its intended one (BenchmarkTriBoundsRow is that).
func BenchmarkTriBoundsBatch(b *testing.B) {
	g, pairs := triWorkload()
	tri := bounds.NewTri(g, 1)
	is := make([]int, len(pairs))
	js := make([]int, len(pairs))
	for q, p := range pairs {
		is[q], js[q] = p[0], p[1]
	}
	lb := make([]float64, len(pairs))
	ub := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tri.BoundsBatch(is, js, lb, ub)
	}
	b.ReportMetric(float64(len(pairs)), "pairs/op")
}

// BenchmarkTriBoundsRow measures the batch entry point on the shape the
// kNN row scan emits: one anchor against every other object in id order
// (n−1 = 511 pairs per op, Tri's row path), on the same graph as
// BenchmarkTriBoundsCSR, which has no complete row. The anchor walks
// every object in turn, so the op averages over rows of every degree,
// most of which take the neighbour-major sweep; resolved pairs answer
// exactly, and pairs/op is the divisor for a per-pair figure.
func BenchmarkTriBoundsRow(b *testing.B) {
	g, _ := triWorkload()
	tri := bounds.NewTri(g, 1)
	n := g.N()
	is := make([]int, n-1)
	js := make([]int, n-1)
	lb := make([]float64, n-1)
	ub := make([]float64, n-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i % n
		for v, x := 0, 0; v < n; v++ {
			if v != a {
				is[x], js[x] = a, v
				x++
			}
		}
		tri.BoundsBatch(is, js, lb, ub)
	}
	b.ReportMetric(float64(n-1), "pairs/op")
}

// BenchmarkTriBoundsLandmarkRow measures the batch entry point on the
// knn-inproc shape: one row per op, an anchor against the other
// n−1 = 2,999 objects in id order, over the planar UrbanGB surrogate
// bootstrapped on ⌊log₂ n⌋ = 11 landmark rows. Those rows are complete,
// so the row's sweep folds them without loading neighbour ids. The kNN
// rows (k = 10) of the first half of a seeded permutation are resolved
// off the clock, as midway through a knn-inproc round, and the anchors
// walk the other half.
func BenchmarkTriBoundsLandmarkRow(b *testing.B) {
	const n, k = 3000, 10
	lms := core.PickLandmarks(n, bits.Len(n)-1, 1)
	s := core.NewSessionWithLandmarks(metric.NewOracle(datasets.UrbanGBPlanar(n, 1)), core.SchemeTri, lms)
	s.Bootstrap(lms)
	order := rand.New(rand.NewSource(1)).Perm(n)
	for _, u := range order[:n/2] {
		prox.KNNRow(s, u, k)
	}
	tri := s.Bounder().(*bounds.Tri)
	is := make([]int, n-1)
	js := make([]int, n-1)
	lb := make([]float64, n-1)
	ub := make([]float64, n-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := order[n/2+i%(n/2)]
		for x := range js {
			is[x], js[x] = a, x
			if x >= a {
				js[x]++
			}
		}
		tri.BoundsBatch(is, js, lb, ub)
	}
	b.ReportMetric(float64(n-1), "pairs/op")
}

// BenchmarkKNNRowShared is one op of the benchmark's knn-inproc workload
// (cmd/proxload): prox.KNNRow with k = 10 on a core.Session over the
// planar UrbanGB surrogate, n = 3000, bootstrapped on ⌊log₂ n⌋ = 11
// landmark rows. Rows walk a seeded permutation; each pass over the
// universe starts from a fresh session, rebuilt off the clock, so every
// row meets the knowledge of a partly built graph as in a load round.
func BenchmarkKNNRowShared(b *testing.B) {
	const n, k = 3000, 10
	space := datasets.UrbanGBPlanar(n, 1)
	lms := core.PickLandmarks(n, bits.Len(n)-1, 1)
	order := rand.New(rand.NewSource(1)).Perm(n)
	var s *core.Session
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			s = core.NewSessionWithLandmarks(metric.NewOracle(space), core.SchemeTri, lms)
			s.Bootstrap(lms)
			b.StartTimer()
		}
		knnRowSink = prox.KNNRow(s, order[i%n], k)
	}
}

var knnRowSink []prox.Neighbor

// BenchmarkTriAdjacencyScan is the ablation of the shipped stamp
// intersection: the same triangle search as a per-element binary probe of
// the smaller flat row into the other pair member's edges via Weight. It
// is the base of the ≥3.5× throughput floor that CI's bench-smoke job
// enforces on BenchmarkTriBoundsCSR. Both read the same store, so the
// floor guards the intersection, not the store's layout.
func BenchmarkTriAdjacencyScan(b *testing.B) {
	g, pairs := triWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		lb, ub := 0.0, 1.0
		u, v := p[0], p[1]
		nu, wu := g.Row(u)
		if nv, _ := g.Row(v); len(nv) < len(nu) {
			u, v = v, u
			nu, wu = g.Row(u)
		}
		for t, k := range nu {
			wi := wu[t]
			if wj, ok := g.Weight(v, int(k)); ok {
				if d := wi - wj; d > lb {
					lb = d
				} else if d := wj - wi; d > lb {
					lb = d
				}
				if sum := wi + wj; sum < ub {
					ub = sum
				}
			}
		}
	}
}

// triWorkload is the Tri benchmarks' graph (8000 resolved pairs over 512
// SF objects) and 1024 unresolved query pairs.
func triWorkload() (*pgraph.Graph, [][2]int) {
	m := datasets.SFPOI(512, 3)
	g := pgraph.New(512)
	rng := rand.New(rand.NewSource(4))
	for g.M() < 8000 {
		i, j := rng.Intn(512), rng.Intn(512)
		if i != j && !g.Known(i, j) {
			g.AddEdge(i, j, m.Distance(i, j))
		}
	}
	pairs := make([][2]int, 0, 1024)
	for len(pairs) < 1024 {
		i, j := rng.Intn(512), rng.Intn(512)
		if i != j && !g.Known(i, j) {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return g, pairs
}

// BenchmarkKruskalLazy vs BenchmarkKruskalPreResolve: the lazy
// lower-bound-queue Kruskal against the classic resolve-and-sort-everything
// variant, measured in oracle calls per op via ReportMetric.
func BenchmarkKruskalLazy(b *testing.B) {
	m := datasets.UrbanGB(128, 5)
	var calls int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := metric.NewOracle(m)
		s := core.NewSession(o, core.SchemeTri)
		prox.KruskalMST(s)
		calls += o.Calls()
	}
	b.ReportMetric(float64(calls)/float64(b.N), "oracle-calls/op")
}

func BenchmarkKruskalPreResolve(b *testing.B) {
	m := datasets.UrbanGB(128, 5)
	var calls int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := metric.NewOracle(m)
		s := core.NewSession(o, core.SchemeNoop)
		// Classic Kruskal resolves every pair before sorting.
		for x := 0; x < 128; x++ {
			for y := x + 1; y < 128; y++ {
				s.Dist(x, y)
			}
		}
		prox.KruskalMST(s)
		calls += o.Calls()
	}
	b.ReportMetric(float64(calls)/float64(b.N), "oracle-calls/op")
}
