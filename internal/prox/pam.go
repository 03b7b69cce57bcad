package prox

import (
	"math"
	"math/rand"

	"metricprox/internal/core"
)

// Clustering is the result of a medoid clustering: l medoid objects, a
// per-point assignment (index into Medoids), and the total cost — the sum
// of each point's distance to its medoid.
type Clustering struct {
	Medoids []int
	Assign  []int
	Cost    float64
}

// assignment holds the nearest/second-nearest medoid structure that both
// PAM and CLARANS maintain.
type assignment struct {
	near []int     // index into medoids of the nearest medoid
	d1   []float64 // distance to nearest
	d2   []float64 // distance to second nearest
}

// assignAll computes the nearest and second-nearest medoid of every point.
// The inner IF — `is dist(p, m) among the two smallest so far?` — is
// re-authored as DistIfLess against the current second-best, so medoids
// whose lower bound already exceeds it are skipped without oracle calls.
func assignAll(s core.View, medoids []int) assignment {
	n := s.N()
	if pf, ok := s.(core.BoundsPrefetcher); ok {
		// One batch for the whole point×medoid grid a remote view is about
		// to scan, instead of a round-trip per DistIfLess prune check.
		pairs := make([]core.Pair, 0, n*len(medoids))
		for p := 0; p < n; p++ {
			for _, m := range medoids {
				if p != m {
					pairs = append(pairs, core.Pair{A: p, B: m})
				}
			}
		}
		pf.PrefetchBounds(pairs)
	}
	a := assignment{
		near: make([]int, n),
		d1:   make([]float64, n),
		d2:   make([]float64, n),
	}
	for p := 0; p < n; p++ {
		a.near[p], a.d1[p], a.d2[p] = assignPoint(s, medoids, p)
	}
	return a
}

// assignPoint scans one point's medoids for its nearest and second-nearest.
func assignPoint(s core.View, medoids []int, p int) (near int, d1, d2 float64) {
	inf := math.Inf(1)
	best, bd1, bd2 := -1, inf, inf
	for mi, m := range medoids {
		var d float64
		if p == m {
			d = 0
		} else {
			var less bool
			d, less = s.DistIfLess(p, m, bd2)
			if !less {
				continue // cannot enter the top two
			}
		}
		if d < bd1 {
			best, bd2, bd1 = mi, bd1, d
		} else {
			bd2 = d
		}
	}
	return best, bd1, bd2
}

// swapDelta returns the exact cost change of replacing medoids[mi] with
// the non-medoid h, resolving d(p, h) only for points where the bounds
// leave the term in doubt (the classic PAM T-contribution, pruned):
//
//	p loses its medoid:  term = min(d(p,h), d2[p]) − d1[p]
//	                     → d2[p] − d1[p] without a call if lb(p,h) ≥ d2[p]
//	p keeps its medoid:  term = min(d(p,h), d1[p]) − d1[p]
//	                     → 0 without a call if lb(p,h) ≥ d1[p]
func swapDelta(s core.View, medoids []int, mi, h int, a assignment) float64 {
	delta := 0.0
	n := s.N()
	if pf, ok := s.(core.BoundsPrefetcher); ok {
		pairs := make([]core.Pair, 0, n-1)
		for p := 0; p < n; p++ {
			if p != h {
				pairs = append(pairs, core.Pair{A: p, B: h})
			}
		}
		pf.PrefetchBounds(pairs)
	}
	for p := 0; p < n; p++ {
		if p == h {
			delta -= a.d1[p] // h becomes its own medoid
			continue
		}
		if a.near[p] == mi {
			d, less := s.DistIfLess(p, h, a.d2[p])
			if less {
				delta += d - a.d1[p]
			} else {
				delta += a.d2[p] - a.d1[p]
			}
		} else {
			if d, less := s.DistIfLess(p, h, a.d1[p]); less {
				delta += d - a.d1[p]
			}
		}
	}
	return delta
}

// totalCost sums d1 over all points.
func (a assignment) totalCost() float64 {
	c := 0.0
	for _, d := range a.d1 {
		c += d
	}
	return c
}

// PAM runs the Partitioning-Around-Medoids swap phase (Kaufman &
// Rousseeuw) from a seeded random initialisation: in every round the best
// of all l·(n−l) single swaps is applied until none improves the cost.
// Every distance access is mediated by the Session, so the medoid set and
// final assignment are identical for every bound scheme.
func PAM(s core.View, l int, seed int64) Clustering {
	n := s.N()
	if l > n {
		l = n
	}
	rng := rand.New(rand.NewSource(seed))
	medoids := append([]int(nil), rng.Perm(n)[:l]...)
	isMedoid := make([]bool, n)
	for _, m := range medoids {
		isMedoid[m] = true
	}

	const improveEps = 1e-12
	for {
		a := assignAll(s, medoids)
		bestDelta, bestMi, bestH := -improveEps, -1, -1
		for mi := range medoids {
			for h := 0; h < n; h++ {
				if isMedoid[h] {
					continue
				}
				if delta := swapDelta(s, medoids, mi, h, a); delta < bestDelta {
					bestDelta, bestMi, bestH = delta, mi, h
				}
			}
		}
		if bestMi == -1 {
			return Clustering{Medoids: medoids, Assign: a.near, Cost: a.totalCost()}
		}
		isMedoid[medoids[bestMi]] = false
		isMedoid[bestH] = true
		medoids[bestMi] = bestH
	}
}
