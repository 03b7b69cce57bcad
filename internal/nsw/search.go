package nsw

import (
	"fmt"
	"slices"
	"sync"

	"metricprox/internal/core"
	"metricprox/internal/fcmp"
	"metricprox/internal/prox"
)

// Search answers an approximate k-nearest-neighbour query for object q
// with a beam search of width efSearch (clamped up to k) from the
// graph's entry point. Distances are resolved through v's IF surface, so
// the session's bounds prune query comparisons exactly as they prune
// construction ones; results arrive in canonical (distance, id) order
// with exact distances. q itself is traversed but never reported.
//
// The answer is approximate in the NSW sense — the beam can miss true
// neighbours — but deterministic: it depends only on the graph and the
// view's distances, never on which bound scheme (or which side of the
// service wire) resolves them. On an oracle failure the error wraps
// core.ErrOracleUnavailable and no partial results are returned.
func (g *Graph) Search(v core.View, q, k, efSearch int) ([]prox.Neighbor, error) {
	if q < 0 || q >= g.n {
		return nil, fmt.Errorf("nsw: query %d out of range [0,%d)", q, g.n)
	}
	if k < 1 {
		return nil, fmt.Errorf("nsw: k=%d, want >= 1", k)
	}
	if g.inserted == 0 {
		return []prox.Neighbor{}, nil
	}
	ef := efSearch
	if ef < k {
		ef = k
	}
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	res, err := g.searchLayer(sc, v, q, ef, q)
	if err != nil || len(res) == 0 {
		return nil, err
	}
	return slices.Clone(res[:min(k, len(res))]), nil
}

// searchScratch is a beam search's working memory: the visited marks,
// the candidate heap and the result beam. A search takes one from
// scratchPool and puts it back when it returns, so a query allocates
// only the answer it hands out, and concurrent searches of one Graph
// never share one.
type searchScratch struct {
	visited []bool
	cands   prox.MinHeap
	beam    beamList
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// reset readies sc for a search over n objects.
func (sc *searchScratch) reset(n int) {
	if cap(sc.visited) < n {
		sc.visited = make([]bool, n)
	} else {
		sc.visited = sc.visited[:n]
		clear(sc.visited)
	}
	sc.cands.Reset()
	sc.beam.items = sc.beam.items[:0]
}

// searchLayer is the greedy beam search shared by insertion and query:
// starting from the entry point (plus any already-inserted landmark
// seeds, see Params.Landmarks) it repeatedly expands the closest
// unexpanded discovery, admitting a neighbour into the ef-wide result
// beam only when the re-authored IF — DistIfLess(q, x, worst-of-beam) —
// says it improves on the current worst. Candidates the bounds prove
// uncompetitive are pruned without an oracle call; candidates that
// enter the beam always carry exact distances, so the traversal (and
// hence the result) is a pure function of the true distances.
//
// exclude names a node that may be traversed but never reported — the
// query object itself when it is part of the universe (its self-distance
// is 0 by definition, no oracle involved). Pass -1 during insertion,
// where q is not yet in the graph. Results come back sorted in canonical
// (distance, id) order, at most ef of them, in sc's beam: the caller
// copies what it keeps before sc goes back to the pool.
func (g *Graph) searchLayer(sc *searchScratch, v core.View, q, ef, exclude int) ([]prox.Neighbor, error) {
	sc.reset(g.n)
	visited := sc.visited
	cands := &sc.cands  // unexpanded discoveries, closest first
	results := &sc.beam // current ef best, canonical order

	// Seed resolutions are unconditional: the beam has no threshold yet,
	// and on a session bootstrapped on the same landmarks they are cache
	// hits anyway. The closest seed pops first, so the traversal starts
	// next to q rather than navigating in from the global entry.
	start := func(e int) error {
		if visited[e] {
			return nil
		}
		visited[e] = true
		if e == exclude {
			cands.Push(prox.Neighbor{ID: e, Dist: 0})
			return nil
		}
		d, err := resolveAlways(v, q, e)
		if err != nil {
			return err
		}
		en := prox.Neighbor{ID: e, Dist: d}
		cands.Push(en)
		results.add(en, ef)
		return nil
	}
	if err := start(g.entry); err != nil {
		return nil, err
	}
	for _, l := range g.params.Landmarks {
		if l >= 0 && l < g.n && g.present[l] {
			if err := start(l); err != nil {
				return nil, err
			}
		}
	}

	for cands.Len() > 0 {
		c := cands.Pop()
		if results.full(ef) {
			// Every later pop is canonically ≥ c; once c cannot displace
			// the beam's worst, nothing on the frontier can.
			if w := results.worst(); fcmp.TieLess(w.Dist, w.ID, c.Dist, c.ID) {
				break
			}
		}
		row := g.adj[c.ID]
		prefetchFrontier(v, q, row, visited)
		for _, nb := range row {
			x := nb.ID
			if visited[x] {
				continue
			}
			visited[x] = true
			if !results.full(ef) {
				d, err := resolveAlways(v, q, x)
				if err != nil {
					return nil, err
				}
				if x != exclude {
					results.add(prox.Neighbor{ID: x, Dist: d}, ef)
				}
				cands.Push(prox.Neighbor{ID: x, Dist: d})
				continue
			}
			// The canonical IF: is dist(q, x) smaller than the beam's
			// worst? Bounds that prove it is not save the oracle call.
			d, less, err := resolveIfLess(v, q, x, results.worst().Dist)
			if err != nil {
				return nil, err
			}
			if !less {
				continue
			}
			if x != exclude {
				results.add(prox.Neighbor{ID: x, Dist: d}, ef)
			}
			cands.Push(prox.Neighbor{ID: x, Dist: d})
		}
	}
	return results.items, nil
}

// resolveAlways resolves dist(q, x) unconditionally through the IF
// surface (threshold above any possible distance), with error
// propagation when the view supports it. The threshold is above the
// distance cap, so an in-process session skips the bound query that
// could not settle it.
func resolveAlways(v core.View, q, x int) (float64, error) {
	d, _, err := resolveIfLess(v, q, x, v.MaxDistance()*2)
	return d, err
}

// resolveIfLess routes the comparison through the error-propagating
// surface when the view is fallible (in-process sessions and the remote
// client both are), falling back to the infallible View method
// otherwise.
func resolveIfLess(v core.View, i, j int, c float64) (float64, bool, error) {
	if fv, ok := v.(core.FallibleView); ok {
		return fv.DistIfLessErr(i, j, c)
	}
	d, less := v.DistIfLess(i, j, c)
	return d, less, nil
}

// prefetchFrontier hints a remote view (core.BoundsPrefetcher) that the
// bounds of (q, x) for every unvisited neighbour x on the beam frontier
// are about to be consulted, collapsing the per-candidate bound reads
// into one batch round-trip. A no-op for in-process sessions; purely a
// performance hint, never an answer.
func prefetchFrontier(v core.View, q int, row []prox.Neighbor, visited []bool) {
	p, ok := v.(core.BoundsPrefetcher)
	if !ok {
		return
	}
	pairs := make([]core.Pair, 0, len(row))
	for _, nb := range row {
		if !visited[nb.ID] && nb.ID != q {
			pairs = append(pairs, core.Pair{A: q, B: nb.ID})
		}
	}
	if len(pairs) > 0 {
		p.PrefetchBounds(pairs)
	}
}

// beamList is the ef-wide result beam: a small sorted slice in canonical
// order (ef is tens, so insertion sort beats a heap and keeps the worst
// — the IF threshold — at the tail).
type beamList struct{ items []prox.Neighbor }

func (b *beamList) full(ef int) bool { return len(b.items) >= ef }

func (b *beamList) worst() prox.Neighbor { return b.items[len(b.items)-1] }

func (b *beamList) add(e prox.Neighbor, ef int) {
	i := len(b.items)
	b.items = append(b.items, e)
	for i > 0 && fcmp.TieLess(e.Dist, e.ID, b.items[i-1].Dist, b.items[i-1].ID) {
		b.items[i] = b.items[i-1]
		i--
	}
	b.items[i] = e
	if len(b.items) > ef {
		b.items = b.items[:ef]
	}
}
