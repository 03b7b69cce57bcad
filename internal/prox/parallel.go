// Parallel builders. Every algorithm here shares its inner loops with its
// sequential counterpart through core.View, and all workers share one
// SharedSession, so every resolved distance tightens the bounds seen by
// every other worker and no pair is ever resolved twice (the session's
// single-flight guarantee). The oracle-call *count* may differ from the
// sequential run — which comparisons the bounds manage to prune depends on
// the resolution interleaving — but the outputs are identical.
package prox

import (
	"runtime"
	"sort"
	"sync"

	"metricprox/internal/core"
	"metricprox/internal/unionfind"
)

// normWorkers resolves the workers argument (0 or less means GOMAXPROCS).
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// KNNGraphParallel builds the k-nearest-neighbour graph with the per-node
// searches fanned out over workers goroutines (0 means GOMAXPROCS). The
// neighbour sets are identical to KNNGraph's: both return the canonical k
// smallest (distance, id) pairs per node. k ≤ 0 yields empty lists, like
// KNNGraph.
func KNNGraphParallel(s *core.SharedSession, k, workers int) [][]Neighbor {
	n := s.N()
	if k >= n {
		k = n - 1
	}
	if k <= 0 {
		return emptyNeighborLists(n)
	}
	workers = normWorkers(workers)
	out := make([][]Neighbor, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				out[u] = knnForNode(s, u, k)
			}
		}()
	}
	for u := 0; u < n; u++ {
		next <- u
	}
	close(next)
	wg.Wait()
	return out
}

// BoruvkaMSTParallel computes the MST with Borůvka's algorithm, fanning
// the per-round cheapest-outgoing-edge scan out over workers goroutines
// (0 means GOMAXPROCS). Each worker scans a strided share of the vertices
// into a private candidate map; the partial maps are then merged with the
// same Session.Less tournament the scan uses, and the merge phase applies
// the winning edges exactly like the sequential algorithm.
//
// With distinct edge weights (the library's continuous datasets) each
// component's cheapest outgoing edge is unique, so the merged candidate
// set — and therefore the MST — is identical to sequential BoruvkaMST's
// regardless of how the tournament comparisons interleave.
func BoruvkaMSTParallel(s *core.SharedSession, workers int) MST {
	n := s.N()
	workers = normWorkers(workers)
	dsu := unionfind.New(n)
	var out MST
	for dsu.Sets() > 1 {
		roots := componentRoots(dsu, n)
		locals := make([]map[int]candEdge, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				local := make(map[int]candEdge)
				for u := w; u < n; u += workers {
					boruvkaScanFrom(s, roots, u, local)
				}
				locals[w] = local
			}(w)
		}
		wg.Wait()
		cheapest := make(map[int]candEdge)
		for _, local := range locals {
			for r, c := range local {
				if best, ok := cheapest[r]; !ok || s.Less(c.u, c.v, best.u, best.v) {
					cheapest[r] = c
				}
			}
		}
		if !boruvkaMerge(s, dsu, cheapest, &out) {
			break // defensively avoid looping on degenerate ties
		}
	}
	return out
}

// componentRoots snapshots every vertex's component representative so the
// scan phase can read roots without mutating the DSU (Find's path
// compression is not safe for concurrent use).
func componentRoots(dsu *unionfind.DSU, n int) []int {
	roots := make([]int, n)
	for u := range roots {
		roots[u] = dsu.Find(u)
	}
	return roots
}

// boruvkaMerge applies one round's winning candidate edges in ascending
// root order (deterministic float accumulation) and reports whether any
// union happened.
func boruvkaMerge(s core.View, dsu *unionfind.DSU, cheapest map[int]candEdge, out *MST) bool {
	order := make([]int, 0, len(cheapest))
	for r := range cheapest {
		order = append(order, r)
	}
	sort.Ints(order)
	progressed := false
	for _, r := range order {
		c := cheapest[r]
		if dsu.Union(c.u, c.v) {
			w := s.Dist(c.u, c.v)
			out.Edges = append(out.Edges, normEdge(c.u, c.v, w))
			out.Weight += w
			progressed = true
		}
	}
	return progressed
}
