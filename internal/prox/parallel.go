// Parallel builders. Every algorithm here shares its inner loops with its
// sequential counterpart through core.View, and all workers share one
// core.Session, so every resolved distance tightens the bounds seen by
// every other worker and no pair is ever resolved twice (the session's
// single-flight guarantee). The oracle-call *count* may differ from the
// sequential run — which comparisons the bounds manage to prune depends on
// the resolution interleaving — but the outputs are identical.
package prox

import (
	"runtime"
	"sync"

	"metricprox/internal/core"
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
func KNNGraphParallel(s *core.Session, k, workers int) [][]Neighbor {
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
// each round's cheapest-outgoing-edge scan out over workers goroutines
// (0 means GOMAXPROCS) that share one candidate slot per component (see
// boruvka). With distinct edge weights (the library's continuous
// datasets) each component's cheapest outgoing edge is unique, so the MST
// is identical to BoruvkaMST's however the comparisons interleave.
func BoruvkaMSTParallel(s *core.Session, workers int) MST {
	return boruvka(s, normWorkers(workers))
}
