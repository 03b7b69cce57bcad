package prox

import "metricprox/internal/core"

// Tour is a travelling-salesman tour: a permutation of all objects and its
// total length.
type Tour struct {
	Order  []int
	Length float64
}

// TSPApprox returns the classic MST-based 2-approximation: build the
// minimum spanning tree (through the session — this is where the call
// savings happen), then short-cut a preorder walk. Only the n tour edges
// are additionally resolved for the length.
func TSPApprox(s *core.Session) Tour {
	mst := PrimMST(s)
	n := s.N()
	adj := make([][]int, n)
	for _, e := range mst.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	order := make([]int, 0, n)
	seen := make([]bool, n)
	stack := []int{0}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		order = append(order, u)
		// Push in reverse for stable preorder.
		for i := len(adj[u]) - 1; i >= 0; i-- {
			if !seen[adj[u][i]] {
				stack = append(stack, adj[u][i])
			}
		}
	}
	return tourFrom(s, order)
}

// TSPNearestNeighbour returns the greedy nearest-neighbour tour. The inner
// IF — `is dist(cur, x) smaller than the best candidate so far?` — runs
// through DistIfLess, so candidates whose lower bound exceeds the current
// best are skipped without a call. The first candidate's threshold,
// 2·maxDist, is above the cap, so it pays no bound query.
func TSPNearestNeighbour(s *core.Session) Tour {
	n := s.N()
	visited := make([]bool, n)
	order := make([]int, 1, n)
	visited[0] = true
	cur := 0
	for len(order) < n {
		best, bestD := -1, s.MaxDistance()*2
		for x := 0; x < n; x++ {
			if visited[x] {
				continue
			}
			if d, less := s.DistIfLess(cur, x, bestD); less {
				best, bestD = x, d
			}
		}
		visited[best] = true
		order = append(order, best)
		cur = best
	}
	return tourFrom(s, order)
}

// TwoOpt improves a tour by 2-opt moves until no improving move remains
// (or maxRounds passes complete). The move test compares *sums* of
// distances — the "distance aggregates" of the paper's Contribution 1:
//
//	improve iff dist(a,b) + dist(c,d) > dist(a,c) + dist(b,d)
//
// The current tour edges (a,b) and (c,d) are already resolved, so the
// re-authored test first checks lb(a,c) + lb(b,d) ≥ dist(a,b) + dist(c,d):
// when the bound sum already rules out improvement, both candidate edges
// stay unresolved. Output equals the unpruned 2-opt exactly.
func TwoOpt(s *core.Session, t Tour, maxRounds int) Tour {
	n := len(t.Order)
	order := append([]int(nil), t.Order...)
	for round := 0; round < maxRounds; round++ {
		improved := false
		for i := 0; i < n-1; i++ {
			a, b := order[i], order[i+1]
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue // would re-create the same tour
				}
				c := order[j]
				d := order[(j+1)%n]
				// Improve iff dist(a,c)+dist(b,d) < dist(a,b)+dist(c,d).
				// Session.SumLess composes the bound intervals and only
				// resolves the terms the verdict genuinely needs.
				if !s.SumLess(
					[]core.Pair{{A: a, B: c}, {A: b, B: d}},
					[]core.Pair{{A: a, B: b}, {A: c, B: d}},
				) {
					continue
				}
				// Reverse the segment order[i+1..j].
				for l, r := i+1, j; l < r; l, r = l+1, r-1 {
					order[l], order[r] = order[r], order[l]
				}
				b = order[i+1]
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return tourFrom(s, order)
}

// tourFrom resolves the tour edges and sums the length.
func tourFrom(s *core.Session, order []int) Tour {
	length := 0.0
	for i := range order {
		length += s.Dist(order[i], order[(i+1)%len(order)])
	}
	return Tour{Order: order, Length: length}
}
