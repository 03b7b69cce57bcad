package prox

import (
	"math"

	"metricprox/internal/core"
	"metricprox/internal/fcmp"
	"metricprox/internal/pgraph"
	"metricprox/internal/pqueue"
	"metricprox/internal/unionfind"
)

// MST is a minimum spanning tree over the complete distance graph.
type MST struct {
	Edges  []pgraph.Edge
	Weight float64
}

// PrimMST computes the MST with Prim's algorithm, re-authored per the
// paper: the inner IF statement `if dist(u,v) < key[v]` becomes
// Session.DistIfLess, so candidate edges whose lower bound already exceeds
// the current key are skipped without an oracle call. An unset key is
// +Inf, above the distance cap, so a first relaxation pays no bound
// query either. With the Noop scheme this resolves exactly C(n,2)
// distances — the paper's "Without Plug" column.
func PrimMST(s core.View) MST {
	n := s.N()
	inTree := make([]bool, n)
	key := make([]float64, n)
	parent := make([]int, n)
	for v := range key {
		key[v] = math.Inf(1)
		parent[v] = -1
	}

	inTree[0] = true
	u := 0
	var out MST
	prefetch, _ := s.(core.BoundsPrefetcher)
	pairs := make([]core.Pair, 0, n-1)
	for added := 1; added < n; added++ {
		// Hint a remote view at the whole relaxation row so its bounds
		// arrive in one batch instead of one round-trip per candidate.
		if prefetch != nil {
			pairs = pairs[:0]
			for v := 0; v < n; v++ {
				if !inTree[v] && v != u {
					pairs = append(pairs, core.Pair{A: u, B: v})
				}
			}
			prefetch.PrefetchBounds(pairs)
		}
		// Relax edges from the newly added vertex.
		for v := 0; v < n; v++ {
			if inTree[v] || v == u {
				continue
			}
			if d, less := s.DistIfLess(u, v, key[v]); less {
				key[v] = d
				parent[v] = u
			}
		}
		// Extract the minimum-key frontier vertex. Keys are exact resolved
		// distances, so no oracle calls happen here.
		best, bestKey := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !inTree[v] && key[v] < bestKey {
				best, bestKey = v, key[v]
			}
		}
		inTree[best] = true
		out.Edges = append(out.Edges, normEdge(parent[best], best, bestKey))
		out.Weight += bestKey
		u = best
	}
	return out
}

// PrimMSTLazy is the comparison-oriented re-authoring of Prim used by the
// DFT experiments (Figures 4a/4b): instead of keeping exact keys, every
// non-tree vertex keeps only a *candidate edge* into the tree, and both the
// relaxation and the minimum extraction are expressed as edge-versus-edge
// Session.Less comparisons. Only the n−1 chosen edges are ever resolved
// outright.
//
// This shape exposes the full power of joint reasoning: a comparison
// between two unresolved edges (the paper's `dist(o2,o6) < dist(o3,o5)`
// pattern) can be settled by DFT's linear-program feasibility even when the
// two edges' individual bound intervals overlap. Interval schemes (ADM,
// SPLUB, Tri) also work here, but can only prune the disjoint-interval
// cases. Output is the exact MST of PrimMST.
func PrimMSTLazy(s core.View) MST {
	n := s.N()
	inTree := make([]bool, n)
	cand := make([]int, n) // best-known tree endpoint for each frontier vertex
	inTree[0] = true
	for v := range cand {
		cand[v] = 0
	}
	var out MST
	for added := 1; added < n; added++ {
		best := -1
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			if best == -1 || s.Less(cand[v], v, cand[best], best) {
				best = v
			}
		}
		w := s.Dist(cand[best], best) // the chosen edge is resolved for output
		inTree[best] = true
		out.Edges = append(out.Edges, normEdge(cand[best], best, w))
		out.Weight += w
		for v := 0; v < n; v++ {
			if !inTree[v] && s.Less(best, v, cand[v], v) {
				cand[v] = best
			}
		}
	}
	return out
}

// KruskalMST computes the MST with a lazily-resolved Kruskal: the C(n,2)
// edges sit in a priority queue keyed by their current *lower bound*; an
// edge popped with both endpoints already connected is discarded without
// ever resolving it, and an unresolved edge at the top is first re-keyed
// by its (monotonically tightening) bound and only resolved when its lower
// bound is genuinely minimal. An exact edge at the top is safe to add: its
// weight is at most every other edge's lower bound, hence at most every
// other true weight. With the Noop scheme every considered edge resolves
// immediately, recovering the classic sort-everything behaviour.
func KruskalMST(s core.View) MST {
	n := s.N()
	h := pqueue.NewEdgeHeap(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			lb, ub := s.Bounds(i, j)
			h.Push(pqueue.Edge{U: i, V: j, Key: lb, Exact: fcmp.ExactEq(lb, ub)})
		}
	}
	dsu := unionfind.New(n)
	var out MST
	const eps = 1e-15
	for len(out.Edges) < n-1 {
		e, ok := h.Pop()
		if !ok {
			break
		}
		if dsu.Connected(e.U, e.V) {
			continue // discarded with no oracle call
		}
		if !e.Exact {
			if lb, ub := s.Bounds(e.U, e.V); fcmp.ExactEq(lb, ub) {
				// Resolved as a side effect of earlier resolutions.
				h.Push(pqueue.Edge{U: e.U, V: e.V, Key: lb, Exact: true})
			} else if lb > e.Key+eps {
				// The bound tightened since the push; re-key, no call.
				h.Push(pqueue.Edge{U: e.U, V: e.V, Key: lb})
			} else {
				d := s.Dist(e.U, e.V)
				h.Push(pqueue.Edge{U: e.U, V: e.V, Key: d, Exact: true})
			}
			continue
		}
		dsu.Union(e.U, e.V)
		out.Edges = append(out.Edges, normEdge(e.U, e.V, e.Key))
		out.Weight += e.Key
	}
	return out
}

func normEdge(u, v int, w float64) pgraph.Edge {
	if u > v {
		u, v = v, u
	}
	return pgraph.Edge{U: u, V: v, W: w}
}
