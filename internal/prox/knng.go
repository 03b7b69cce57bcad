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
// A row reads all n−1 intervals up front — in one BoundsBatch call
// when s is an in-process core.BatchBoundsView, after one PrefetchBounds
// hint when it is a core.BoundsPrefetcher — and pops candidates lazily
// from a heap in (lower bound, id) order. Only the candidates whose lower
// bound is at most T, the row's k-th smallest upper bound, enter the
// heap at first: with sound bounds the k-th distance is at most T, so
// the scan stops before it reaches any other. The rest wait behind the
// heap and are heapified only if it runs dry while the scan could still
// admit one (an unsound float bound put the k-th distance above T).
// Either way the scan sees the same candidates in the same order and
// makes the same oracle calls as a per-pair Bounds loop followed by a
// full sort.
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
// slices and the row's lower and upper bounds, each n−1 long, the
// candidate heap's backing array, and the k-entry heap that selects the
// k-th smallest upper bound. Rows draw it from rowPool, so a build
// allocates it once per concurrent row scan rather than once per row; no
// row a builder returns aliases it.
type rowScratch struct {
	is, js []int
	lb, ub []float64
	cands  []Neighbor
	lowUB  []Neighbor // the k smallest upper bounds seen, negated
}

var rowPool = sync.Pool{New: func() any { return new(rowScratch) }}

// rowBounds reads the interval of (u, v) for every v ≠ u into sc.lb and
// sc.ub, in id order with u skipped. An in-process view answers the row
// with one BoundsBatch call — for a core.Session, one lock acquisition
// for all n−1 pairs, which Tri answers as one canonical row: one pass
// over u's neighbour rows, folded straight into sc.lb and sc.ub, when
// that reads fewer cells than probing each pair's row; any other view
// gets the prefetch hint and then one Bounds call per pair.
func (sc *rowScratch) rowBounds(s core.View, u, n int) {
	if cap(sc.lb) < n-1 {
		sc.lb, sc.ub = make([]float64, n-1), make([]float64, n-1)
	}
	lb, ub := sc.lb[:n-1], sc.ub[:n-1]
	if bb, ok := s.(core.BatchBoundsView); ok {
		if cap(sc.is) < n-1 {
			sc.is, sc.js = make([]int, n-1), make([]int, n-1)
		}
		is, js := sc.is[:n-1], sc.js[:n-1]
		for x := range js {
			is[x], js[x] = u, x
			if x >= u {
				js[x]++
			}
		}
		bb.BoundsBatch(is, js, lb, ub)
		return
	}
	prefetchRow(s, u, n)
	for v, x := 0, 0; v < n; v++ {
		if v != u {
			lb[x], ub[x] = s.Bounds(u, v)
			x++
		}
	}
}

// kthUpper returns the k-th smallest of the row's upper bounds
// (0 < k ≤ n−1) in O(n log k). A MinHeap over the negated bounds is a
// max-heap of the k smallest seen so far; a later bound replaces its top
// only when smaller.
func (sc *rowScratch) kthUpper(n, k int) float64 {
	top := sc.lowUB[:0]
	for _, b := range sc.ub[:k] {
		top = append(top, Neighbor{Dist: -b})
	}
	var h MinHeap
	h.init(top)
	for _, b := range sc.ub[k : n-1] {
		if -b > h.items[0].Dist {
			h.items[0].Dist = -b
			h.down(0)
		}
	}
	sc.lowUB = h.items
	return -h.items[0].Dist
}

// candidates returns, keyed by lower bound, the candidates v ≠ u whose
// lower bound is above t when above is set, and the others otherwise. A
// tie at t is not above it: the scan may have to pop it when kth == t.
func (sc *rowScratch) candidates(u, n int, t float64, above bool) []Neighbor {
	cands := sc.cands[:0]
	for x, lb := range sc.lb[:n-1] {
		if (lb > t) == above {
			v := x
			if x >= u {
				v++
			}
			cands = append(cands, Neighbor{ID: v, Dist: lb})
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
//
// Candidates pop in (lb, id) order. Those with lb ≤ T (the k-th smallest
// upper bound) precede every other, so the heap starts with them alone.
// When it runs dry the next candidate has lb > T; the scan stops there
// if it holds k neighbours with kth ≤ T, since that candidate has
// lb > kth, and otherwise heapifies the rest and goes on. The pops, the
// oracle calls and the Stats are therefore the full heap's for any
// bounds, sound or not; T only decides how much is heapified.
func knnForNode(s core.View, u, k int) []Neighbor {
	sc := rowPool.Get().(*rowScratch)
	defer rowPool.Put(sc)
	n := s.N()
	sc.rowBounds(s, u, n)
	cut := sc.kthUpper(n, k)
	refilled := false
	var cands MinHeap // keyed by lower bound: Dist holds lb(u, ID)
	cands.init(sc.candidates(u, n, cut, false))

	// Running top-k as a sorted slice; admit inserts in place.
	best := make([]Neighbor, 0, k)
	kth := s.MaxDistance() * 2 // +∞ until k candidates are in
	kthID := -1                // id of the current k-th neighbour
	for {
		if cands.Len() == 0 {
			if refilled || (len(best) == k && kth <= cut) {
				// Nothing left, or every waiting candidate has
				// lb > cut ≥ kth: pruned below, as the full heap would.
				break
			}
			cands.init(sc.candidates(u, n, cut, true))
			refilled = true
			continue
		}
		c := cands.Pop()
		if len(best) == k && (c.Dist > kth || (fcmp.ExactEq(c.Dist, kth) && c.ID > kthID)) {
			// Candidates pop in (lb, id) order: every remaining one has
			// d ≥ lb > kth, or ties at kth with an id that loses to the
			// incumbent k-th neighbour. All pruned wholesale.
			break
		}
		threshold := kth
		if len(best) < k {
			// Above the distance cap: a session resolves without
			// asking the bounds, which could not refuse the pair.
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
		best = admit(best, Neighbor{ID: c.ID, Dist: d}, k)
		if len(best) == k {
			kth = best[k-1].Dist
			kthID = best[k-1].ID
		}
	}
	return best
}

// admit inserts e into best, which is sorted in the canonical
// (distance, id) order and holds at most k entries: a binary search finds
// e's place, the entries after it shift up one, and an entry shifted past
// the k-th place drops out.
func admit(best []Neighbor, e Neighbor, k int) []Neighbor {
	lo, hi := 0, len(best)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fcmp.TieLess(best[mid].Dist, best[mid].ID, e.Dist, e.ID) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if len(best) < k {
		best = append(best, Neighbor{})
	} else if lo == k {
		return best
	}
	copy(best[lo+1:], best[lo:])
	best[lo] = e
	return best
}
