package prox

import (
	"sync"

	"metricprox/internal/core"
	"metricprox/internal/fcmp"
)

// KNNGraph constructs the k-nearest-neighbour graph in the style of KNNrp
// (Paredes et al., "Practical construction of k-nearest neighbor graphs in
// metric spaces", WEA 2006): for each object the candidate objects are
// processed in ascending order of their current *lower bound*, and the scan
// stops as soon as the next candidate's lower bound reaches the running
// k-th-nearest distance — every remaining candidate is pruned wholesale.
// Bounds only tighten as edges resolve, so the early exit is sound.
//
// A row reads all n−1 lower bounds up front — in one BoundsBatch call
// when s is an in-process core.BatchBoundsView, after one PrefetchBounds
// hint when it is a core.BoundsPrefetcher — and pops candidates lazily
// from a heap in (lower bound, id) order, so the few it examines cost
// O(log n) each instead of a sort of the whole row. Either way the scan
// sees the same candidates in the same order and makes the same oracle
// calls as a per-pair Bounds loop followed by a full sort.
//
// Each inner comparison is the paper's canonical IF: `is dist(u,v) smaller
// than the current k-th nearest distance?` — re-authored as
// Session.DistIfLess. Output: for every object, its k nearest neighbours
// in the canonical (distance, id) order; ties at exactly the k-th distance
// resolve in favour of the smaller id, deterministically across schemes,
// worker counts, and scan interleavings. k ≤ 0 yields empty lists.
func KNNGraph(s core.View, k int) [][]Neighbor {
	n := s.N()
	if k >= n {
		k = n - 1
	}
	if k <= 0 {
		return emptyNeighborLists(n)
	}
	out := make([][]Neighbor, n)
	for u := 0; u < n; u++ {
		out[u] = knnForNode(s, u, k)
	}
	return out
}

// KNNRow returns the k nearest neighbours of the single object u, in the
// same canonical (distance, id) order as the matching row of KNNGraph.
// Exported so callers that need only part of the graph — the warm-restart
// tests drive half a build this way — pay only for the rows they ask for.
func KNNRow(s core.View, u, k int) []Neighbor {
	n := s.N()
	if k >= n {
		k = n - 1
	}
	if k <= 0 {
		return []Neighbor{}
	}
	return knnForNode(s, u, k)
}

// prefetchRow hints a remote view (core.BoundsPrefetcher) that the bounds
// of (u, v) for every v ≠ u are about to be read, collapsing what would be
// n−1 bound round-trips into one batch. A no-op for in-process sessions.
func prefetchRow(s core.View, u, n int) {
	p, ok := s.(core.BoundsPrefetcher)
	if !ok {
		return
	}
	pairs := make([]core.Pair, 0, n-1)
	for v := 0; v < n; v++ {
		if v != u {
			pairs = append(pairs, core.Pair{A: u, B: v})
		}
	}
	p.PrefetchBounds(pairs)
}

// emptyNeighborLists is the degenerate k ≤ 0 (or n ≤ 1) result: every
// object has an empty neighbour list.
func emptyNeighborLists(n int) [][]Neighbor {
	out := make([][]Neighbor, n)
	for i := range out {
		out[i] = []Neighbor{}
	}
	return out
}

// rowScratch is one row scan's working set: the BoundsBatch argument
// slices and the candidate heap's backing array, each n−1 long. Rows draw
// it from rowPool, so a build allocates it once per concurrent row scan
// rather than once per row; no row a builder returns aliases it.
type rowScratch struct {
	is, js []int
	lb, ub []float64
	cands  []Neighbor
}

var rowPool = sync.Pool{New: func() any { return new(rowScratch) }}

// rowBounds returns u's candidates v ≠ u in id order, each keyed by its
// current lower bound. An in-process view answers the row with one
// BoundsBatch call — for a core.Session, one lock acquisition for all
// n−1 pairs, which Tri answers as one run: one stamp of u's adjacency
// row, and one pass over u's neighbour rows when that reads fewer cells
// than probing each pair's row; any other view gets the prefetch hint
// and then one Bounds call per pair.
func (sc *rowScratch) rowBounds(s core.View, u, n int) []Neighbor {
	cands := sc.cands[:0]
	if bb, ok := s.(core.BatchBoundsView); ok {
		is, js := sc.is[:0], sc.js[:0]
		for v := 0; v < n; v++ {
			if v != u {
				is, js = append(is, u), append(js, v)
			}
		}
		if cap(sc.lb) < len(is) {
			sc.lb, sc.ub = make([]float64, len(is)), make([]float64, len(is))
		}
		lb, ub := sc.lb[:len(is)], sc.ub[:len(is)]
		bb.BoundsBatch(is, js, lb, ub)
		for x, v := range js {
			cands = append(cands, Neighbor{ID: v, Dist: lb[x]})
		}
		sc.is, sc.js = is, js
	} else {
		prefetchRow(s, u, n)
		for v := 0; v < n; v++ {
			if v != u {
				lb, _ := s.Bounds(u, v)
				cands = append(cands, Neighbor{ID: v, Dist: lb})
			}
		}
	}
	sc.cands = cands
	return cands
}

// knnForNode runs the candidate scan for one node. It is shared verbatim
// by the sequential and parallel builders (core.View abstracts the
// session), which is what makes the single-worker parallel build match the
// sequential one call-for-call. Requires 0 < k < s.N().
//
// The scan maintains the running k-th neighbour as the pair (kth, kthID)
// and admits a candidate exactly when its (distance, id) precedes it
// lexicographically, so the returned set is the canonical k smallest
// (distance, id) pairs regardless of the order candidates resolve in.
func knnForNode(s core.View, u, k int) []Neighbor {
	sc := rowPool.Get().(*rowScratch)
	defer rowPool.Put(sc)
	var cands MinHeap // keyed by lower bound: Dist holds lb(u, ID)
	cands.init(sc.rowBounds(s, u, s.N()))

	// Running top-k as a simple sorted slice (k is small).
	best := make([]Neighbor, 0, k+1)
	kth := s.MaxDistance() * 2 // +∞ until k candidates are in
	kthID := -1                // id of the current k-th neighbour
	for cands.Len() > 0 {
		c := cands.Pop()
		if len(best) == k && (c.Dist > kth || (fcmp.ExactEq(c.Dist, kth) && c.ID > kthID)) {
			// Candidates pop in (lb, id) order: every remaining one has
			// d ≥ lb > kth, or ties at kth with an id that loses to the
			// incumbent k-th neighbour. All pruned wholesale.
			break
		}
		threshold := kth
		if len(best) < k {
			threshold = s.MaxDistance() * 2
		}
		d, less := s.DistIfLess(u, c.ID, threshold)
		if !less {
			// d ≥ kth. A tie d == kth still wins when c.ID beats the
			// incumbent k-th neighbour's id in the canonical order.
			if len(best) < k || c.ID > kthID {
				continue
			}
			if w, ok := s.Known(u, c.ID); ok {
				d = w // resolved by DistIfLess (or a concurrent worker)
			} else {
				lb, _ := s.Bounds(u, c.ID)
				if lb > kth {
					continue // provably beyond the k-th distance
				}
				d = s.Dist(u, c.ID)
			}
			if !fcmp.ExactEq(d, kth) {
				continue
			}
		}
		best = append(best, Neighbor{ID: c.ID, Dist: d})
		sortNeighbors(best)
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			kth = best[k-1].Dist
			kthID = best[k-1].ID
		}
	}
	return best
}
