package bounds

import (
	"math"

	"metricprox/internal/pgraph"
)

// LAESA is the landmark (pivot) baseline of Micó, Oncina & Vidal (1994).
// A set of k landmarks has its distance to every object resolved up front
// (the bootstrap, paid in oracle calls); afterwards any pair (i, j) is
// bounded through each landmark l:
//
//	lb = max_l |d(l,i) − d(l,j)|      ub = min_l d(l,i) + d(l,j)
//
// The scheme is static: resolved edges not incident to a landmark never
// improve its bounds, which is exactly the weakness the paper's dynamic
// schemes exploit. This implementation is slightly generous to the
// baseline: Update ingests *any* edge incident to a landmark, so landmark
// rows also fill in lazily if the proximity algorithm happens to resolve
// them.
type LAESA struct {
	n       int
	maxDist float64
	landIdx []int       // object -> row index, -1 if not a landmark
	rows    [][]float64 // rows[r][x] = d(landmark r, x); NaN if unknown
}

// NewLAESA returns a LAESA baseline with the given landmark objects. Rows
// are filled by Update calls (normally the Session bootstrap).
func NewLAESA(n int, landmarks []int, maxDist float64) *LAESA {
	l := &LAESA{
		n:       n,
		maxDist: maxDist,
		landIdx: make([]int, n),
	}
	for i := range l.landIdx {
		l.landIdx[i] = -1
	}
	l.rows = make([][]float64, len(landmarks))
	for r, lm := range landmarks {
		l.landIdx[lm] = r
		row := make([]float64, n)
		for x := range row {
			row[x] = math.NaN()
		}
		row[lm] = 0
		l.rows[r] = row
	}
	return l
}

// Name returns "laesa".
func (l *LAESA) Name() string { return "laesa" }

// Update stores d into the landmark rows when i or j is a landmark and is
// otherwise ignored (the static-baseline behaviour).
func (l *LAESA) Update(i, j int, d float64) {
	if r := l.landIdx[i]; r >= 0 {
		l.rows[r][j] = d
	}
	if r := l.landIdx[j]; r >= 0 {
		l.rows[r][i] = d
	}
}

// Bounds combines every landmark with complete information on the pair.
func (l *LAESA) Bounds(i, j int) (float64, float64) {
	if i == j {
		// A self-distance is identically 0; the landmark sums below would
		// report a loose nonzero upper bound (2·d(l,i)).
		return 0, 0
	}
	lb, ub := 0.0, l.maxDist
	for _, row := range l.rows {
		di, dj := row[i], row[j]
		if math.IsNaN(di) || math.IsNaN(dj) {
			continue
		}
		if d := math.Abs(di - dj); d > lb {
			lb = d
		}
		if s := di + dj; s < ub {
			ub = s
		}
	}
	return clamp(lb, ub, l.maxDist)
}

// TLAESA is the tree-extended landmark baseline (Micó, Oncina & Carrasco
// 1996). Beyond the flat LAESA pivot table it builds a two-level pivot
// hierarchy during bootstrap: every object is assigned to its nearest
// global landmark (free — the rows are known), each cluster elects a
// *local representative* (its member farthest from the landmark, a classic
// diverse-pivot rule), and the representative's distances to its cluster
// members and to the other representatives are resolved. That construction
// "incurs additional distance computations" (the paper's phrasing, ≈ n +
// C(k,2) extra calls) and buys strictly tighter bounds:
//
//   - intra-cluster pairs get a nearby pivot, whose difference bound
//     |d(r,i) − d(r,j)| is far tighter than any distant global landmark's;
//   - cross-cluster pairs get the chain bound through two representatives,
//     d(i,j) ≥ d(r_i, r_j) − d(r_i, i) − d(r_j, j), which is not dominated
//     because local rows are not global.
//
// CPU per query is higher than LAESA's O(k) scan — reproducing the paper's
// "TLAESA saves more calls than LAESA at more local computation".
type TLAESA struct {
	*LAESA
	cluster  []int       // object -> cluster (landmark index), -1 before bootstrap
	reps     []int       // cluster -> representative object, -1 if none
	repIdx   []int       // object -> rep row index, -1 if not a rep
	repRows  [][]float64 // repRows[r][x] = d(rep r, x) for x in r's cluster
	interRep [][]float64 // rep-to-rep distances
}

// NewTLAESA returns a TLAESA baseline with the given landmarks. Until
// Bootstrap runs it behaves exactly like LAESA.
func NewTLAESA(n int, landmarks []int, maxDist float64) *TLAESA {
	t := &TLAESA{
		LAESA:   NewLAESA(n, landmarks, maxDist),
		cluster: make([]int, n),
		repIdx:  make([]int, n),
	}
	for i := range t.cluster {
		t.cluster[i] = -1
		t.repIdx[i] = -1
	}
	k := len(landmarks)
	t.reps = make([]int, k)
	for c := range t.reps {
		t.reps[c] = -1
	}
	t.repRows = make([][]float64, k)
	t.interRep = make([][]float64, k)
	for r := range t.interRep {
		t.interRep[r] = make([]float64, k)
		for s := range t.interRep[r] {
			if r != s {
				t.interRep[r][s] = math.NaN()
			}
		}
	}
	return t
}

// Name returns "tlaesa".
func (t *TLAESA) Name() string { return "tlaesa" }

// Update feeds the landmark rows and, after bootstrap, the representative
// rows and inter-representative matrix.
func (t *TLAESA) Update(i, j int, d float64) {
	t.LAESA.Update(i, j, d)
	if r := t.repIdx[i]; r >= 0 && t.repRows[r] != nil {
		t.repRows[r][j] = d
	}
	if r := t.repIdx[j]; r >= 0 && t.repRows[r] != nil {
		t.repRows[r][i] = d
	}
	ri, rj := t.repIdx[i], t.repIdx[j]
	if ri >= 0 && rj >= 0 {
		t.interRep[ri][rj] = d
		t.interRep[rj][ri] = d
	}
}

// Bootstrap implements the Bootstrapper contract: resolve the global
// landmark rows, build the pivot tree, and resolve the representative
// rows, all through resolve so every call is accounted.
func (t *TLAESA) Bootstrap(resolve func(i, j int) float64, landmarks []int) {
	for _, e := range EdgesForBootstrap(t.n, landmarks) {
		resolve(e.U, e.V)
	}
	// Assign every object to its nearest landmark (no calls: rows known).
	for x := 0; x < t.n; x++ {
		best, bestD := -1, math.Inf(1)
		for r, row := range t.rows {
			if d := row[x]; !math.IsNaN(d) && d < bestD {
				best, bestD = r, d
			}
		}
		t.cluster[x] = best
	}
	// Elect each cluster's representative: the member farthest from its
	// landmark (diverse-pivot rule), excluding the landmark itself.
	for c := range t.reps {
		far, farD := -1, -1.0
		for x := 0; x < t.n; x++ {
			if t.cluster[x] != c || t.landIdx[x] >= 0 {
				continue
			}
			if d := t.rows[c][x]; d > farD {
				far, farD = x, d
			}
		}
		if far == -1 {
			continue // cluster has no non-landmark members
		}
		t.reps[c] = far
		t.repIdx[far] = c
		row := make([]float64, t.n)
		for x := range row {
			row[x] = math.NaN()
		}
		row[far] = 0
		t.repRows[c] = row
	}
	// Resolve representative-to-member and rep-to-rep distances (the
	// "additional distance computations" of tree construction).
	for c, rep := range t.reps {
		if rep == -1 {
			continue
		}
		for x := 0; x < t.n; x++ {
			if x != rep && t.cluster[x] == c {
				resolve(rep, x)
			}
		}
		for c2 := c + 1; c2 < len(t.reps); c2++ {
			if t.reps[c2] != -1 {
				resolve(rep, t.reps[c2])
			}
		}
	}
}

// Bounds refines the LAESA bounds with the pivot tree.
func (t *TLAESA) Bounds(i, j int) (float64, float64) {
	if i == j {
		return 0, 0
	}
	lb, ub := t.LAESA.Bounds(i, j)
	ci, cj := t.cluster[i], t.cluster[j]
	if ci >= 0 && ci == cj && t.repRows[ci] != nil {
		row := t.repRows[ci]
		di, dj := row[i], row[j]
		if !math.IsNaN(di) && !math.IsNaN(dj) {
			if d := math.Abs(di - dj); d > lb {
				lb = d
			}
			if s := di + dj; s < ub {
				ub = s
			}
		}
	} else if ci >= 0 && cj >= 0 && t.repRows[ci] != nil && t.repRows[cj] != nil {
		di := t.repRows[ci][i]
		dj := t.repRows[cj][j]
		drr := t.interRep[ci][cj]
		if !math.IsNaN(di) && !math.IsNaN(dj) && !math.IsNaN(drr) {
			if v := drr - di - dj; v > lb {
				lb = v
			}
			if v := di + drr + dj; v < ub {
				ub = v
			}
		}
	}
	return clamp(lb, ub, t.maxDist)
}

// EdgesForBootstrap returns, for a landmark set, the list of pairs a
// Session bootstrap must resolve: every (landmark, object) pair, each
// unordered pair once. The count is k·n − k − C(k,2), matching the
// Bootstrap column of the paper's Tables 2–3.
func EdgesForBootstrap(n int, landmarks []int) []pgraph.Edge {
	isLand := make([]bool, n)
	for _, l := range landmarks {
		isLand[l] = true
	}
	out := make([]pgraph.Edge, 0, len(landmarks)*max(n-1, 0))
	for idx, l := range landmarks {
		for x := 0; x < n; x++ {
			if x == l {
				continue
			}
			// Deduplicate landmark-landmark pairs: emit only from the
			// lower-indexed landmark.
			if isLand[x] {
				lower := true
				for _, prev := range landmarks[:idx] {
					if prev == x {
						lower = false
						break
					}
				}
				if !lower {
					continue
				}
			}
			out = append(out, pgraph.Edge{U: l, V: x})
		}
	}
	return out
}
