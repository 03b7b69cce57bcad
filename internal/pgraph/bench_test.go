package pgraph_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/nsw"
	"metricprox/internal/pgraph"
)

// replayN and replaySeed give search-hot's graph (cmd/proxload): the
// planar SF surrogate at n = 2,000, a Tri session bootstrapped on the
// service's ⌊log₂ n⌋ = 10 PickLandmarks landmarks, and the NSW build
// at seed 1.
const (
	replayN    = 2000
	replaySeed = 1
)

// replayEdges builds that graph once per process and returns its edges
// in a seeded shuffled order, so inserts land mid-row as a session's do.
var replayEdges = sync.OnceValue(func() []pgraph.Edge {
	lms := core.PickLandmarks(replayN, 10, replaySeed)
	s := core.NewSessionWithLandmarks(metric.NewOracle(datasets.SFPOIPlanar(replayN, replaySeed)), core.SchemeTri, lms)
	s.Bootstrap(lms)
	if _, err := nsw.Build(s, nsw.Params{Seed: replaySeed, Landmarks: lms}); err != nil {
		panic(err)
	}
	g := s.Graph()
	var edges []pgraph.Edge
	for u := 0; u < g.N(); u++ {
		nbrs, weights := g.Row(u)
		for x, v := range nbrs {
			if int(v) > u {
				edges = append(edges, pgraph.Edge{U: u, V: int(v), W: weights[x]})
			}
		}
	}
	rand.New(rand.NewSource(replaySeed)).Shuffle(len(edges), func(x, y int) { edges[x], edges[y] = edges[y], edges[x] })
	return edges
})

// replaySink keeps each timed replay's graph reachable, so the compiler
// cannot drop the work.
var replaySink *pgraph.Graph

func replay(edges []pgraph.Edge) *pgraph.Graph {
	g := pgraph.New(replayN)
	for _, e := range edges {
		g.AddEdge(e.U, e.V, e.W)
	}
	return g
}

// BenchmarkStoreReplay is the store's layer number: each op replays
// search-hot's graph, built once off the clock, into a fresh pgraph.New.
// Next to B/op and allocs/op it reports B/pair, the live heap one
// replayed graph holds after a GC, divided by its pair count.
func BenchmarkStoreReplay(b *testing.B) {
	edges := replayEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replaySink = replay(edges)
	}
	b.StopTimer()
	replaySink = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := replay(edges)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(len(edges)), "B/pair")
}
