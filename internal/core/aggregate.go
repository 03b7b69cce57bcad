package core

import (
	"metricprox/internal/bounds"
	"metricprox/internal/fcmp"
)

// Pair identifies one distance term of an aggregate comparison.
type Pair struct{ A, B int }

// SumLessThan reports whether Σ dist(p.A, p.B) over pairs is strictly less
// than c — the "distance aggregates" form of the paper's Contribution 1
// (IF statements that compare sums of distances, as in 2-opt moves,
// clustering cost deltas, or tour comparisons).
//
// Interval bounds compose additively: if the upper bounds already sum
// below c the answer is certainly true; if the lower bounds reach c it is
// certainly false. Only when the aggregate interval straddles c are the
// unresolved terms resolved — largest bound-gap first, re-checking after
// each resolution, so the oracle is consulted as few times as possible.
func (s *Session) SumLessThan(pairs []Pair, c float64) bool { return s.sumLess(pairs, nil, c) }

// SumLess reports whether Σ dist over left is strictly less than Σ dist
// over right, with the same bound-first, loosest-term-next resolution
// strategy applied to both sides jointly.
func (s *Session) SumLess(left, right []Pair) bool { return s.sumLess(left, right, 0) }

// sumLess decides Σ dist over left − Σ dist over right < c: the bounds
// kernel settles the aggregate interval [lo, hi] against c, and until it
// does the loosest unresolved term is resolved.
func (s *Session) sumLess(left, right []Pair, c float64) bool {
	type term struct {
		p      Pair
		lb, ub float64
		sign   float64 // +1 for left, −1 for right
	}
	lo, hi := 0.0, 0.0
	var open []term
	add := func(ps []Pair, sign float64) {
		for _, p := range ps {
			lb, ub := s.Bounds(p.A, p.B)
			if sign > 0 {
				lo += lb
				hi += ub
			} else {
				lo -= ub
				hi -= lb
			}
			if !fcmp.ExactEq(lb, ub) {
				open = append(open, term{p: p, lb: lb, ub: ub, sign: sign})
			}
		}
	}
	add(left, 1)
	add(right, -1)
	for {
		if less, decided := bounds.DecideLessThan(lo, hi, c); decided {
			s.noteSaved()
			if len(open) > 0 {
				// Derived intervals are still in the sum: classify like a
				// scalar bounds decision, so slack-widened ones count.
				s.boundsOutcome()
			}
			return less
		}
		if len(open) == 0 {
			// Fully resolved and still straddling: impossible in exact
			// arithmetic (every term has lb == ub), but the running sums
			// can round to lo < c ≤ hi; the resolved lower sum decides.
			less, _ := bounds.DecideLessThan(lo, lo, c)
			return less
		}
		// Resolve the loosest term: it moves the aggregate interval most.
		widest, gap := 0, -1.0
		for i, t := range open {
			if g := t.ub - t.lb; g > gap {
				widest, gap = i, g
			}
		}
		t := open[widest]
		open[widest] = open[len(open)-1]
		open = open[:len(open)-1]
		s.ins.ResolvedComparisons.Inc()
		d := s.Dist(t.p.A, t.p.B)
		if t.sign > 0 {
			lo += d - t.lb
			hi += d - t.ub
		} else {
			lo -= d - t.ub
			hi -= d - t.lb
		}
	}
}
