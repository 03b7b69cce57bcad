package bounds

import (
	"math"
	"math/rand"
	"testing"

	"metricprox/internal/pgraph"
)

// splubEdgeList is Algorithm 1 over an explicit edge list, the form SPLUB
// had when the graph kept one: Dijkstra from both ends, path lengths
// capped at maxDist, and the lower bound maximised over the edges in
// insertion order.
func splubEdgeList(g *pgraph.Graph, edges []pgraph.Edge, maxDist float64, i, j int) (float64, float64) {
	if w, ok := g.Weight(i, j); ok {
		return w, w
	}
	di, dj := make([]float64, g.N()), make([]float64, g.N())
	pgraph.NewSearcher(g).Run(i, di)
	pgraph.NewSearcher(g).Run(j, dj)
	ub := maxDist
	if di[j] < ub {
		ub = di[j]
	}
	for x := range di {
		di[x], dj[x] = math.Min(di[x], maxDist), math.Min(dj[x], maxDist)
	}
	lb := 0.0
	for _, e := range edges {
		if v := e.W - di[e.U] - dj[e.V]; v > lb {
			lb = v
		}
		if v := e.W - di[e.V] - dj[e.U]; v > lb {
			lb = v
		}
	}
	return clamp(lb, ub, maxDist)
}

// TestSPLUBBitsMatchEdgeList holds SPLUB's row-tail scan to the edge-list
// formula bit for bit, on random graphs whose weights repeat and include
// zero, so that equal candidates and zero-length paths occur.
func TestSPLUBBitsMatchEdgeList(t *testing.T) {
	weights := []float64{0, 0, 0.25, 0.5, 0.5, 0.75, 1}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(20)
		g := pgraph.New(n)
		var edges []pgraph.Edge
		for e := rng.Intn(3 * n); e > 0; e-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j || g.Known(i, j) {
				continue
			}
			w := weights[rng.Intn(len(weights))]
			if rng.Intn(3) == 0 {
				w = rng.Float64()
			}
			g.AddEdge(i, j, w)
			edges = append(edges, pgraph.Edge{U: min(i, j), V: max(i, j), W: w})
		}
		splub := NewSPLUB(g, 1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				lb, ub := splub.Bounds(i, j)
				wlb, wub := splubEdgeList(g, edges, 1, i, j)
				if math.Float64bits(lb) != math.Float64bits(wlb) || math.Float64bits(ub) != math.Float64bits(wub) {
					t.Fatalf("trial %d (%d,%d): splub [%v,%v], edge list [%v,%v]", trial, i, j, lb, ub, wlb, wub)
				}
			}
		}
	}
}
