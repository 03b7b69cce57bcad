// Package prox implements the proximity algorithms evaluated in the paper —
// Prim's and Kruskal's MST, a KNNrp-style k-nearest-neighbour graph
// construction, and the PAM and CLARANS medoid clusterings — re-authored
// against the core.Session comparison API per the paper's practitioner
// guide.
//
// Each algorithm is written exactly once: running it over a Session with
// the Noop scheme reproduces the unmodified ("Without Plug") algorithm,
// while any other scheme saves oracle calls without changing the output.
// The package tests assert this output identity across all schemes.
package prox

import (
	"sort"

	"metricprox/internal/fcmp"
)

// Neighbor is one entry of a k-nearest-neighbour list.
type Neighbor struct {
	ID   int
	Dist float64
}

// SortNeighbors orders a neighbour list by the canonical (distance, id)
// rule every builder in this repository resolves ties with. Exported for
// the packages that share Neighbor as their result type — the nsw
// search-graph builder keeps its adjacency in this order so traversal is
// deterministic.
func SortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(a, b int) bool {
		return fcmp.TieLess(ns[a].Dist, ns[a].ID, ns[b].Dist, ns[b].ID)
	})
}

// MinHeap is a binary min-heap of neighbours in the canonical
// (distance, id) order: Pop returns the fcmp.TieLess-smallest entry, so
// a sequence of pops is exactly the prefix of a full sort by that rule.
// The nsw beam search keeps its frontier in one; the kNN row scan
// heapifies, keyed by lower bound, only the row's candidates it can pop
// before it stops (lb at most the row's k-th smallest upper bound: about
// 45 of 2,999 on cmd/proxload's knn-inproc shape) and the rest only if
// the heap runs dry before then.
type MinHeap struct{ items []Neighbor }

// Len returns the number of entries.
func (h *MinHeap) Len() int { return len(h.items) }

// Reset empties the heap and keeps its backing array for reuse.
func (h *MinHeap) Reset() { h.items = h.items[:0] }

// Push adds e.
func (h *MinHeap) Push(e Neighbor) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the smallest entry. The heap must not be
// empty.
func (h *MinHeap) Pop() Neighbor {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.down(0)
	return top
}

// init adopts items as the heap's backing array and orders it in O(n)
// by sifting down every internal node, bottom-up.
func (h *MinHeap) init(items []Neighbor) {
	h.items = items
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *MinHeap) less(a, b int) bool {
	return fcmp.TieLess(h.items[a].Dist, h.items[a].ID, h.items[b].Dist, h.items[b].ID)
}

func (h *MinHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.items) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
