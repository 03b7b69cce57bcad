package prox

import (
	"sync"

	"metricprox/internal/core"
	"metricprox/internal/unionfind"
)

// candEdge is a candidate outgoing edge of a component during a Borůvka
// round; u < 0 marks an empty slot.
type candEdge struct{ u, v int }

// BoruvkaMST computes the MST with Borůvka's algorithm: every round, each
// component selects its cheapest outgoing edge and all selections are
// merged. The per-component selection is a tournament of edge-versus-edge
// comparisons — Session.Less — so, like the lazy Prim, only the edges that
// actually win a round need exact resolution.
//
// With distinct edge weights (the library's continuous datasets) Borůvka,
// Prim and Kruskal all return the identical unique MST; the package tests
// assert it, as well as identity with BoruvkaMSTParallel, of which this
// is the one-worker case.
func BoruvkaMST(s core.View) MST { return boruvka(s, 1) }

// boruvka runs Borůvka's rounds with each round's scan split over workers
// goroutines, the calling goroutine being worker 0: worker w scans the
// edges (u, v), v > u, of every u ≡ w mod workers. All workers offer
// their edges to one shared candidate slot per component, so a
// tournament always compares against the best edge any worker has found.
// One worker makes the sequential scan's comparisons in the same order.
func boruvka(s core.View, workers int) MST {
	n := s.N()
	dsu := unionfind.New(n)
	var out MST
	for dsu.Sets() > 1 {
		r := newBoruvkaRound(dsu, n)
		scan := func(w int) {
			for u := w; u < n; u += workers {
				r.scanFrom(s, u)
			}
		}
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				scan(w)
			}(w)
		}
		scan(0)
		wg.Wait()
		if !r.merge(s, dsu, &out) {
			break // defensively avoid looping on degenerate ties
		}
	}
	return out
}

// boruvkaRound is one round's state: each vertex's component
// representative, snapshotted so the scan never mutates the DSU (Find's
// path compression is not safe for concurrent use), and best[c], the
// cheapest outgoing edge of component c found so far, guarded by mu.
type boruvkaRound struct {
	roots []int
	mu    sync.Mutex
	best  []candEdge
}

func newBoruvkaRound(dsu *unionfind.DSU, n int) *boruvkaRound {
	r := &boruvkaRound{roots: make([]int, n), best: make([]candEdge, n)}
	for u := range r.roots {
		r.roots[u] = dsu.Find(u)
		r.best[u] = candEdge{u: -1, v: -1}
	}
	return r
}

// scanFrom offers every edge (u, v), v > u, that leaves u's component to
// the components of both endpoints.
func (r *boruvkaRound) scanFrom(s core.View, u int) {
	ru := r.roots[u]
	for v := u + 1; v < len(r.roots); v++ {
		if rv := r.roots[v]; rv != ru {
			r.offer(s, ru, candEdge{u: u, v: v})
			r.offer(s, rv, candEdge{u: u, v: v})
		}
	}
}

// offer makes e component c's candidate if the slot is empty or e beats
// its edge. Less runs with mu released, since it may call the oracle; if
// another worker moved the slot meanwhile, e is compared again with the
// new edge. The slot only moves to smaller edges, so an edge that loses
// to one incumbent loses to every later one.
func (r *boruvkaRound) offer(s core.View, c int, e candEdge) {
	r.mu.Lock()
	for best := r.best[c]; best.u >= 0; best = r.best[c] {
		r.mu.Unlock()
		if !s.Less(e.u, e.v, best.u, best.v) {
			return
		}
		r.mu.Lock()
		if r.best[c] == best {
			break
		}
	}
	r.best[c] = e
	r.mu.Unlock()
}

// merge applies the round's winning edges in ascending component order
// (deterministic float accumulation) and reports whether any union
// happened.
func (r *boruvkaRound) merge(s core.View, dsu *unionfind.DSU, out *MST) bool {
	progressed := false
	for _, e := range r.best {
		if e.u >= 0 && dsu.Union(e.u, e.v) {
			w := s.Dist(e.u, e.v)
			out.Edges = append(out.Edges, normEdge(e.u, e.v, w))
			out.Weight += w
			progressed = true
		}
	}
	return progressed
}
