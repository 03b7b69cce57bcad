package bounds

import "metricprox/internal/pgraph"

// SPLUB is the Shortest-Path based Lower and Upper Bound scheme of
// Section 4.1 (Algorithm 1). For an unknown edge (i, j) it runs Dijkstra
// from both endpoints over the known edges and then:
//
//	ub = min(maxDist, sp_i[j])
//	lb = max over known edges (k,l) of  w(k,l) − sp_i[k] − sp_j[l]
//	     (both orientations of the edge considered)
//
// Lemma 4.1 in the paper proves these are the *tightest* bounds derivable
// from the triangle inequality. Query cost is O(m + n log n); updates are
// O(1) because the only state is the shared partial graph.
type SPLUB struct {
	g       *pgraph.Graph
	maxDist float64
	si, sj  *pgraph.Searcher
	di, dj  []float64 // reusable distance arrays
}

// NewSPLUB returns a SPLUB bounder reading (and, via Update, feeding) the
// given partial graph. maxDist is the a-priori distance cap (1 in the
// paper's normalised setting).
func NewSPLUB(g *pgraph.Graph, maxDist float64) *SPLUB {
	return &SPLUB{
		g:       g,
		maxDist: maxDist,
		si:      pgraph.NewSearcher(g),
		sj:      pgraph.NewSearcher(g),
		di:      make([]float64, g.N()),
		dj:      make([]float64, g.N()),
	}
}

// Name returns "splub".
func (s *SPLUB) Name() string { return "splub" }

// Update records the resolved edge in the shared partial graph, unless the
// Session has already done so (the graph deduplicates).
func (s *SPLUB) Update(i, j int, d float64) { s.g.AddEdge(i, j, d) }

// Bounds implements Algorithm 1 (SPLUB).
func (s *SPLUB) Bounds(i, j int) (float64, float64) {
	if i == j {
		// A self-distance is identically 0; without this guard the two
		// Dijkstra runs would pay full query cost to report a loose
		// nonzero interval.
		return 0, 0
	}
	if w, ok := s.g.Weight(i, j); ok {
		return w, w
	}
	s.si.Run(i, s.di)
	s.sj.Run(j, s.dj)

	ub := s.maxDist
	if sp := s.di[j]; sp < ub {
		ub = sp
	}

	// Cap path lengths at maxDist: min(sp, maxDist) is a valid (and
	// tighter) upper bound on the corresponding distance, which makes the
	// lower bounds below tighter on sparse or disconnected graphs and
	// keeps SPLUB exactly equal to the ADM matrix bounds.
	for x := range s.di {
		if s.di[x] > s.maxDist {
			s.di[x] = s.maxDist
		}
		if s.dj[x] > s.maxDist {
			s.dj[x] = s.maxDist
		}
	}

	// Every known edge (k,l), k < l, is visited once, as a cell of the
	// tail of k's sorted row past k. The strict max over the candidates
	// does not depend on their order, so the walk's order changes no bit.
	lb := 0.0
	for k := range s.di {
		nb, ws := s.g.Row(k)
		for x := len(nb) - 1; x >= 0 && int(nb[x]) > k; x-- {
			l, w := nb[x], ws[x]
			// Wrap the i→…→k, l→…→j shortest paths onto the known edge
			// (k,l): whatever length of w(k,l) they cannot cover must
			// separate i and j.
			if v := w - s.di[k] - s.dj[l]; v > lb {
				lb = v
			}
			if v := w - s.di[l] - s.dj[k]; v > lb {
				lb = v
			}
		}
	}
	return clamp(lb, ub, s.maxDist)
}
