package bounds

import (
	"metricprox/internal/lp"
	"metricprox/internal/pgraph"
)

// DFT is the DIRECT FEASIBILITY TEST of Section 2.2: the complete
// triangle-inequality structure over all C(n,2) pairwise distances is
// encoded once as a system of linear inequalities; every resolved distance
// adds an equality; and a comparison IF statement is decided by probing the
// system with the *reversed* constraint — if no metric completion satisfies
// the reversal, the original comparison is certain and the oracle calls are
// saved.
//
// DFT subsumes every bound-based scheme (it reasons over the joint
// polytope, not per-edge intervals), which is why the paper reports it
// saving the most distance calls — and why it only scales to graphs with a
// few hundred edges: each IF statement solves a phase-1 simplex over
// C(n,2) variables and 3·C(n,3) triangle rows.
type DFT struct {
	n       int
	maxDist float64
	prob    *lp.Problem
	base    int // row count of the immutable triangle/box system plus equalities
	known   map[int64]float64
}

// NewDFT builds the full triangle-inequality system for n objects with all
// distances in [0, maxDist]. Cost: C(n,2) variables, C(n,2) + 3·C(n,3)
// rows — only viable for small n, by design.
func NewDFT(n int, maxDist float64) *DFT {
	d := &DFT{
		n:       n,
		maxDist: maxDist,
		prob:    lp.NewProblem(n * (n - 1) / 2),
		known:   make(map[int64]float64),
	}
	// Box: each distance at most maxDist (nonnegativity is implicit).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.prob.AddLE(map[int]float64{d.varOf(i, j): 1}, maxDist)
		}
	}
	// Triangles: each side at most the sum of the other two.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				ij, jk, ik := d.varOf(i, j), d.varOf(j, k), d.varOf(i, k)
				d.prob.AddLE(map[int]float64{ij: 1, jk: -1, ik: -1}, 0)
				d.prob.AddLE(map[int]float64{ij: -1, jk: 1, ik: -1}, 0)
				d.prob.AddLE(map[int]float64{ij: -1, jk: -1, ik: 1}, 0)
			}
		}
	}
	d.base = d.prob.Snapshot()
	return d
}

// varOf maps an unordered pair to its LP variable index.
func (d *DFT) varOf(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Row-major index into the strict upper triangle.
	return i*(2*d.n-i-1)/2 + (j - i - 1)
}

// Name returns "dft".
func (d *DFT) Name() string { return "dft" }

// Update pins the resolved distance with an equality pair.
func (d *DFT) Update(i, j int, dist float64) {
	k := pgraph.Key(i, j)
	if _, ok := d.known[k]; ok {
		return
	}
	d.known[k] = dist
	d.prob.AddEQ(map[int]float64{d.varOf(i, j): 1}, dist)
	d.base = d.prob.Snapshot()
}

// probe adds the reversed constraint, solves, rolls back, and reports
// whether the reversal was infeasible (i.e. the original claim is proven).
func (d *DFT) probe(coeffs map[int]float64, rhs float64, ge bool) bool {
	snap := d.prob.Snapshot()
	if ge {
		d.prob.AddGE(coeffs, rhs)
	} else {
		d.prob.AddLE(coeffs, rhs)
	}
	feasible := d.prob.Feasible()
	d.prob.Rollback(snap)
	return !feasible
}

// ProveLess reports whether dist(i,j) < dist(k,l) holds in every metric
// completion, by refuting dist(i,j) ≥ dist(k,l).
func (d *DFT) ProveLess(i, j, k, l int) bool {
	vij, vkl := d.varOf(i, j), d.varOf(k, l)
	if vij == vkl {
		return false
	}
	return d.probe(map[int]float64{vij: 1, vkl: -1}, 0, true)
}

// ProveLessC reports whether dist(i,j) < c is certain, refuting
// dist(i,j) ≥ c.
func (d *DFT) ProveLessC(i, j int, c float64) bool {
	return d.probe(map[int]float64{d.varOf(i, j): 1}, c, true)
}

// ProveGEC reports whether dist(i,j) ≥ c is certain, refuting
// dist(i,j) ≤ c. (Refuting the weak inequality proves the strict one,
// which implies ≥.)
func (d *DFT) ProveGEC(i, j int, c float64) bool {
	return d.probe(map[int]float64{d.varOf(i, j): 1}, c, false)
}

// Bounder facade: DFT can also act as a Bounder by exposing only what it
// knows exactly; proximity algorithms driving DFT use the Comparator
// interface for the actual pruning.

// Bounds returns exact values for resolved pairs and the trivial interval
// otherwise. (Interval bounds via LP bisection would be possible but the
// comparator interface is strictly more powerful and cheaper.)
func (d *DFT) Bounds(i, j int) (float64, float64) {
	if i == j {
		// A self-distance is identically 0 and has no LP variable
		// (varOf is only defined for i ≠ j).
		return 0, 0
	}
	if w, ok := d.known[pgraph.Key(i, j)]; ok {
		return w, w
	}
	return 0, d.maxDist
}

// Completion extracts one concrete metric consistent with everything the
// DFT knows: a full n×n symmetric matrix that reproduces every resolved
// distance exactly and satisfies all triangle inequalities. It is a vertex
// of the metric polytope (a witness from the phase-1 simplex) — useful for
// debugging, for what-if analyses, and as a constructive proof that the
// recorded distances are jointly consistent. ok is false only if the
// recorded distances are themselves contradictory.
func (d *DFT) Completion() ([][]float64, bool) {
	x, ok := d.prob.FeasiblePoint()
	if !ok {
		return nil, false
	}
	m := make([][]float64, d.n)
	for i := range m {
		m[i] = make([]float64, d.n)
	}
	for i := 0; i < d.n; i++ {
		for j := i + 1; j < d.n; j++ {
			v := x[d.varOf(i, j)]
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m, true
}
