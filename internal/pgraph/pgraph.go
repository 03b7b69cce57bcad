package pgraph

import (
	"fmt"
	"math"

	"metricprox/internal/fcmp"
	"metricprox/internal/pqueue"
)

// Edge is a known, weighted edge of the partial graph with U < V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is a partial distance graph over objects 0..n-1. Each resolved
// distance lives once, in the two cells of its endpoints' rows in the
// flat store.
type Graph struct {
	n   int
	adj *flatStore // per-node sorted neighbour/weight runs
}

// New returns an empty partial graph over n objects.
func New(n int) *Graph {
	return &Graph{n: n, adj: newFlatStore(n)}
}

// Key packs an unordered pair into a single map key.
func Key(i, j int) int64 {
	if i > j {
		i, j = j, i
	}
	return int64(i)<<32 | int64(j)
}

// N returns the number of objects.
func (g *Graph) N() int { return g.n }

// M returns the number of known edges.
func (g *Graph) M() int { return g.adj.live / 2 }

// Weight returns the known weight of edge (i, j), if resolved, by binary
// search over the shorter of the two rows. A pair outside the universe
// is not resolved.
func (g *Graph) Weight(i, j int) (float64, bool) {
	if uint(i) >= uint(g.n) || uint(j) >= uint(g.n) {
		return 0, false
	}
	if g.adj.degree(j) < g.adj.degree(i) {
		i, j = j, i
	}
	return g.adj.get(i, j)
}

// Known reports whether the distance between i and j has been resolved.
func (g *Graph) Known(i, j int) bool {
	_, ok := g.Weight(i, j)
	return ok
}

// Degree returns the number of known edges incident on u.
func (g *Graph) Degree(u int) int { return g.adj.degree(u) }

// Row returns u's adjacency as two parallel slices — neighbour ids in
// strictly increasing order and the matching edge weights. The slices
// alias the graph's flat store: they are read-only and valid only until
// the next AddEdge (a row relocation or compaction may move them; see
// Stats().Epoch). This zero-copy view is the substrate of the Tri
// Scheme's sorted-merge intersection.
func (g *Graph) Row(u int) (nbrs []int32, weights []float64) {
	return g.adj.row(u)
}

// Stats snapshots the flat store's occupancy (slab cells, garbage,
// growth epoch).
func (g *Graph) Stats() StoreStats { return g.adj.stats() }

// AddEdge records the resolved distance w between i and j.
// Re-adding an existing edge with the same weight is a no-op; re-adding
// with a different weight panics, because a metric distance is immutable —
// a disagreement means the caller's oracle is not a function.
func (g *Graph) AddEdge(i, j int, w float64) {
	if i == j {
		panic("pgraph: self edge")
	}
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		panic(fmt.Sprintf("pgraph: edge (%d,%d) outside universe of %d objects", i, j, g.n))
	}
	if old, ok := g.Weight(i, j); ok {
		if !fcmp.ExactEq(old, w) {
			panic(fmt.Sprintf("pgraph: conflicting weights %v and %v for edge (%d,%d)", old, w, i, j))
		}
		return
	}
	g.adj.insert(i, j, w)
	g.adj.insert(j, i, w)
}

// Searcher runs repeated Dijkstra searches over the same graph, reusing its
// priority queue allocation. SPLUB issues two searches per bound query, so
// this reuse matters.
type Searcher struct {
	g *Graph
	q *pqueue.IndexedMin
}

// NewSearcher returns a Searcher bound to g. The Searcher sees edges added
// to g after construction (it reads the live adjacency).
func NewSearcher(g *Graph) *Searcher {
	return &Searcher{g: g, q: pqueue.NewIndexedMin(g.n)}
}

// Run computes shortest path distances from src into dist (length n).
func (s *Searcher) Run(src int, dist []float64) {
	g := s.g
	if len(dist) != g.n {
		panic("pgraph: dist slice has wrong length")
	}
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := s.q
	for q.Len() > 0 { // drain any residue from an aborted prior run
		q.Pop()
	}
	q.Push(src, 0)
	for q.Len() > 0 {
		u, du, _ := q.Pop()
		if du > dist[u] {
			continue
		}
		nb, ws := g.adj.row(u)
		for t, v := range nb {
			if nd := du + ws[t]; nd < dist[v] {
				dist[v] = nd
				q.Push(int(v), nd)
			}
		}
	}
}

// RunTo computes shortest path distances from src but may stop early once
// target is settled; entries for unsettled nodes are upper bounds or +Inf.
// It returns the shortest-path distance to target (possibly +Inf).
func (s *Searcher) RunTo(src, target int, dist []float64) float64 {
	g := s.g
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := s.q
	for q.Len() > 0 {
		q.Pop()
	}
	q.Push(src, 0)
	for q.Len() > 0 {
		u, du, _ := q.Pop()
		if du > dist[u] {
			continue
		}
		if u == target {
			return du
		}
		nb, ws := g.adj.row(u)
		for t, v := range nb {
			if nd := du + ws[t]; nd < dist[v] {
				dist[v] = nd
				q.Push(int(v), nd)
			}
		}
	}
	return dist[target]
}
