// Package query answers single-object range (radius) queries through the
// core.Session framework, plus the classic AESA baseline (Vidal Ruiz 1986)
// the paper cites as the ancestor of the landmark methods. Single-object
// k-nearest-neighbour queries are prox.KNNRow.
//
// These are the workloads the related-work index structures (LAESA,
// TLAESA, VP-trees, M-trees) were designed for; expressing them through
// the Session shows the paper's claim that the framework "easily applies"
// beyond the batch algorithms of its evaluation.
package query

import (
	"sort"

	"metricprox/internal/core"
	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
)

// Result is one query answer.
type Result struct {
	ID   int
	Dist float64
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(a, b int) bool {
		return fcmp.TieLess(rs[a].Dist, rs[a].ID, rs[b].Dist, rs[b].ID)
	})
}

// Range returns every object within (closed) radius r of q with its exact
// distance. Candidates whose lower bound exceeds r are pruned without a
// call; everything else resolves.
func Range(s *core.Session, q int, r float64) []Result {
	n := s.N()
	var out []Result
	for x := 0; x < n; x++ {
		if x == q {
			continue
		}
		if d, ok := s.Known(q, x); ok {
			if d <= r {
				out = append(out, Result{ID: x, Dist: d})
			}
			continue
		}
		lb, _ := s.Bounds(q, x)
		if lb > r {
			continue // pruned, no call
		}
		if d := s.Dist(q, x); d <= r {
			out = append(out, Result{ID: x, Dist: d})
		}
	}
	sortResults(out)
	return out
}

// RangeIDs answers a radius query with ids only, which unlocks the second
// pruning direction: a candidate whose *upper* bound is already within r
// is included without ever resolving its distance. This is the maximal
// call-saving form of the range query.
func RangeIDs(s *core.Session, q int, r float64) []int {
	n := s.N()
	var out []int
	for x := 0; x < n; x++ {
		if x == q {
			continue
		}
		if d, ok := s.Known(q, x); ok {
			if d <= r {
				out = append(out, x)
			}
			continue
		}
		lb, ub := s.Bounds(q, x)
		switch {
		case lb > r: // certainly outside
		case ub <= r: // certainly inside, no call
			out = append(out, x)
		default:
			if s.Dist(q, x) <= r {
				out = append(out, x)
			}
		}
	}
	return out
}

// AESA is the Approximating and Eliminating Search Algorithm baseline:
// all C(n,2) inter-object distances are precomputed (the famous quadratic
// preprocessing that LAESA was invented to avoid), after which a query
// needs very few distance evaluations — each resolved candidate becomes a
// pivot that tightens |d(q,p) − d(p,x)| lower bounds on everyone else.
type AESA struct {
	n     int
	d     []float64 // n×n row-major inter-object distances
	calls int64
}

// BuildAESA precomputes the full distance matrix (n(n−1)/2 calls).
func BuildAESA(space metric.Space) *AESA {
	n := space.Len()
	a := &AESA{n: n, d: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			//proxlint:allow oracleescape -- AESA baseline: the full O(n²) preprocessing matrix is the point of the algorithm; a.calls keeps its own accounting for the experiments
			v := space.Distance(i, j)
			a.calls++
			a.d[i*n+j] = v
			a.d[j*n+i] = v
		}
	}
	return a
}

// ConstructionCalls returns the preprocessing call count.
func (a *AESA) ConstructionCalls() int64 { return a.calls }

// NN answers a k-nearest-neighbour query for an object treated as
// *external*: dist is the only way to learn a query-to-object distance
// (each invocation is one billable call), while the precomputed matrix
// supplies every object-to-object distance for free. Returns the answers
// and the number of dist invocations.
func (a *AESA) NN(k int, exclude int, dist func(x int) float64) ([]Result, int64) {
	if k >= a.n {
		k = a.n - 1
	}
	lb := make([]float64, a.n)
	alive := make([]bool, a.n)
	for x := range alive {
		alive[x] = x != exclude
	}
	var best []Result
	var calls int64
	kth := func() float64 {
		if len(best) < k {
			return 1e18
		}
		return best[len(best)-1].Dist
	}
	for {
		// Approximate: pick the live candidate with the smallest lower bound.
		pick, pickLB := -1, 1e18
		for x := 0; x < a.n; x++ {
			if alive[x] && lb[x] < pickLB {
				pick, pickLB = x, lb[x]
			}
		}
		if pick == -1 || (len(best) == k && pickLB >= kth()) {
			break
		}
		dq := dist(pick)
		calls++
		alive[pick] = false
		best = append(best, Result{ID: pick, Dist: dq})
		sortResults(best)
		if len(best) > k {
			best = best[:k]
		}
		// Eliminate: pick is now a pivot for everyone still alive.
		row := a.d[pick*a.n : pick*a.n+a.n]
		for x := 0; x < a.n; x++ {
			if !alive[x] {
				continue
			}
			if v := dq - row[x]; v > lb[x] {
				lb[x] = v
			} else if v := row[x] - dq; v > lb[x] {
				lb[x] = v
			}
			if len(best) == k && lb[x] >= kth() {
				alive[x] = false
			}
		}
	}
	return best, calls
}
