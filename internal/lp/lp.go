// Package lp implements a dense phase-1 simplex solver for linear
// feasibility systems of the form
//
//	A x ≤ b,  x ≥ 0.
//
// It is the substrate for the paper's DIRECT FEASIBILITY TEST (Section 2.2):
// the triangle-inequality relationships among known and unknown distances
// are encoded as such a system and the IF statement of a proximity
// algorithm is resolved by asking whether the system extended with the
// *reversed* comparison constraint is infeasible.
//
// The paper used CPLEX; this package replaces it with a from-scratch
// tableau simplex using Bland's pivoting rule (which guarantees
// termination). Only the feasibility verdict of phase 1 is needed — no
// objective is ever optimised — so the implementation stops as soon as the
// artificial cost reaches zero.
//
// The solver is exponential in the worst case and cubic-ish in practice;
// exactly as the paper observes, DFT is only viable for graphs with a few
// hundred edges.
package lp

import "math"

const eps = 1e-9

// Problem is a feasibility problem over nonnegative variables.
type Problem struct {
	nvars int
	rows  []row
}

type row struct {
	coeffs []float64 // dense, length nvars
	rhs    float64
}

// NewProblem returns an empty problem over numVars nonnegative variables.
func NewProblem(numVars int) *Problem {
	return &Problem{nvars: numVars}
}

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddLE adds the constraint Σ coeffs[i]·x[i] ≤ rhs. coeffs is sparse:
// variable index → coefficient.
func (p *Problem) AddLE(coeffs map[int]float64, rhs float64) {
	dense := make([]float64, p.nvars)
	for i, c := range coeffs {
		if i < 0 || i >= p.nvars {
			panic("lp: coefficient index out of range")
		}
		dense[i] = c
	}
	p.rows = append(p.rows, row{coeffs: dense, rhs: rhs})
}

// AddGE adds Σ coeffs[i]·x[i] ≥ rhs by negating.
func (p *Problem) AddGE(coeffs map[int]float64, rhs float64) {
	neg := make(map[int]float64, len(coeffs))
	for i, c := range coeffs {
		neg[i] = -c
	}
	p.AddLE(neg, -rhs)
}

// AddEQ adds Σ coeffs[i]·x[i] = rhs as a pair of inequalities, mirroring
// the paper's encoding of known distances.
func (p *Problem) AddEQ(coeffs map[int]float64, rhs float64) {
	p.AddLE(coeffs, rhs)
	p.AddGE(coeffs, rhs)
}

// Snapshot returns the number of rows; Rollback truncates back to it.
// The DFT comparator adds one probing constraint per IF statement and rolls
// it back afterwards.
func (p *Problem) Snapshot() int { return len(p.rows) }

// Rollback removes all rows added after the snapshot.
func (p *Problem) Rollback(snapshot int) {
	if snapshot < 0 || snapshot > len(p.rows) {
		panic("lp: invalid snapshot")
	}
	p.rows = p.rows[:snapshot]
}

// Feasible reports whether some x ≥ 0 satisfies every constraint.
//
// Method: phase-1 simplex. Each row aᵀx ≤ b becomes aᵀx + s = b with slack
// s ≥ 0. Rows with b < 0 are negated (yielding a surplus variable) and get
// an artificial variable; minimising the sum of artificials to zero proves
// feasibility.
func (p *Problem) Feasible() bool {
	ok, _ := p.solve(false)
	return ok
}

// FeasiblePoint returns a witness x ≥ 0 satisfying every constraint, if
// one exists. The witness is a basic feasible solution — a vertex of the
// polytope — which makes it useful for tests and for extracting concrete
// metric completions from a DFT system.
func (p *Problem) FeasiblePoint() ([]float64, bool) {
	ok, x := p.solve(true)
	if !ok {
		return nil, false
	}
	return x, true
}

func (p *Problem) solve(wantPoint bool) (bool, []float64) {
	m := len(p.rows)
	n := p.nvars
	if m == 0 {
		if wantPoint {
			return true, make([]float64, n)
		}
		return true, nil
	}

	// Column layout: [x (n)] [slack/surplus (m)] [artificial (k)].
	// First pass: count artificials.
	nart := 0
	for _, r := range p.rows {
		if r.rhs < -eps {
			nart++
		}
	}
	total := n + m + nart

	// Tableau: m rows × (total+1) columns (last column = rhs), plus an
	// objective row at index m.
	t := make([][]float64, m+1)
	for i := range t {
		t[i] = make([]float64, total+1)
	}
	basis := make([]int, m)

	ai := 0
	for i, r := range p.rows {
		sign := 1.0
		if r.rhs < -eps {
			sign = -1.0
		}
		for j, c := range r.coeffs {
			t[i][j] = sign * c
		}
		t[i][n+i] = sign // slack (+1) or surplus (−1)
		t[i][total] = sign * r.rhs
		if sign < 0 {
			col := n + m + ai
			t[i][col] = 1
			basis[i] = col
			ai++
		} else {
			basis[i] = n + i
		}
	}

	// Objective: minimise sum of artificials (phase-1 cost 1 on every
	// artificial column), expressed over non-basic variables by subtracting
	// each artificial's basic row so that basic reduced costs are zero.
	obj := t[m]
	for j := n + m; j < total; j++ {
		obj[j] = 1
	}
	for i := range p.rows {
		if basis[i] >= n+m {
			for j := 0; j <= total; j++ {
				obj[j] -= t[i][j]
			}
		}
	}

	// Simplex iterations with Bland's rule (smallest-index entering and
	// leaving variables) to preclude cycling.
	for {
		if -obj[total] <= eps { // objective value = -obj[rhs]
			return true, extract(t, basis, n, total, wantPoint)
		}
		enter := -1
		for j := 0; j < total; j++ {
			if obj[j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			// Optimal with positive artificial sum: infeasible.
			return false, nil
		}
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][enter] > eps {
				ratio := t[i][total] / t[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave == -1 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			// Unbounded in a minimisation of a sum of nonnegative
			// variables cannot happen; defensively treat as feasible
			// (objective can be driven to zero).
			return true, extract(t, basis, n, total, wantPoint)
		}
		pivot(t, basis, leave, enter, total)
	}
}

// extract reads the original variables' values off the final tableau.
func extract(t [][]float64, basis []int, n, total int, wantPoint bool) []float64 {
	if !wantPoint {
		return nil
	}
	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			v := t[i][total]
			if v < 0 {
				v = 0 // rounding guard: basics are nonnegative up to eps
			}
			x[b] = v
		}
	}
	return x
}

func pivot(t [][]float64, basis []int, leave, enter, total int) {
	pr := t[leave]
	pv := pr[enter]
	for j := 0; j <= total; j++ {
		pr[j] /= pv
	}
	for i := range t {
		if i == leave {
			continue
		}
		factor := t[i][enter]
		if factor == 0 {
			continue
		}
		ri := t[i]
		for j := 0; j <= total; j++ {
			ri[j] -= factor * pr[j]
		}
	}
	basis[leave] = enter
}
