package bounds

import (
	"math"

	"metricprox/internal/pgraph"
)

// Tri is the Triangle Induced Solution Scheme of Section 4.2
// (Algorithm 2). For an unknown edge (i, j) it inspects only the triangles
// (i, j, l) whose other two sides are known:
//
//	lb = max over common neighbours l of |w(i,l) − w(j,l)|
//	ub = min over common neighbours l of  w(i,l) + w(j,l)
//
// The common neighbours come from intersecting the two flat adjacency
// rows of the partial graph's CSR store. Rather than a two-cursor sorted
// merge (whose key comparisons are data-dependent branches the CPU cannot
// predict), the intersection stamps one row into per-object scratch and
// probes the other — two sequential scans with one predictable test each,
// no per-query allocation. Expected query cost stays O(deg i + deg j) =
// O(m/n) (Theorem 4.2); updates are the sorted-run insertions done by the
// shared partial graph.
//
// A batch row — one anchor u against many objects j, the shape of a kNN
// or Prim row — is answered the cheaper of two ways (see BoundsBatch).
// Probing each unresolved j's row against u's stamp reads Σ deg(j)
// cells, about n·(2m/n) for a full row. Sweeping u's neighbour rows once
// reads Σ deg(w) over u's neighbours w: about n for each landmark among
// them and 2m/n for each other neighbour. Both read a landmark's n cells
// once per row, but the sweep skips every cell of j's row outside u's
// neighbours, which closes no triangle with u, and it has no per-cell
// branch.
//
// The bounds are looser than SPLUB's — only paths of length 2 are
// considered — but queries avoid both Dijkstra bottlenecks, which is why
// the paper crowns Tri the practical choice for large instances.
type Tri struct {
	g       *pgraph.Graph
	maxDist float64
	rho     float64 // relaxation factor; 1 = true metric

	// Intersection scratch, sized n at construction: stamp[v] == qid
	// marks v as a neighbour of the currently stamped row and pos[v]
	// remembers where, so a probe of the other row finds each common
	// neighbour in O(1) with no clearing between queries (qid advances
	// instead). Guarded by the session lock like the graph itself.
	stamp []uint64
	pos   []int32
	qid   uint64

	// Sweep accumulators, allocated on the first neighbour-major sweep
	// (16n bytes): acc[v] folds the candidate interval of the pair
	// (anchor, v). Only the cells of the current run's pairs are reset
	// and read; the rest hold stale folds. Guarded by the session lock
	// like the stamps.
	acc []span
}

// span is one object's sweep accumulator: the running max of its lower
// bound candidates and min of its upper bound candidates.
type span struct{ lo, hi float64 }

// NewTri returns a Tri bounder over the given partial graph.
func NewTri(g *pgraph.Graph, maxDist float64) *Tri {
	return NewTriRelaxed(g, maxDist, 1)
}

// NewTriRelaxed returns a Tri bounder for a ρ-relaxed metric — a distance
// obeying d(x,z) ≤ ρ·(d(x,y) + d(y,z)) for some ρ ≥ 1, the generalised
// setting the paper's Characteristic 1 admits. Squared Euclidean distance
// is the canonical example (ρ = 2). The triangle bounds weaken accordingly:
//
//	lb = max over common neighbours l of max(w(i,l)/ρ − w(j,l), w(j,l)/ρ − w(i,l))
//	ub = min over common neighbours l of ρ·(w(i,l) + w(j,l))
//
// With ρ = 1 these are exactly Algorithm 2's bounds.
func NewTriRelaxed(g *pgraph.Graph, maxDist, rho float64) *Tri {
	if rho < 1 {
		panic("bounds: relaxation factor must be at least 1")
	}
	return &Tri{
		g:       g,
		maxDist: maxDist,
		rho:     rho,
		stamp:   make([]uint64, g.N()),
		pos:     make([]int32, g.N()),
	}
}

// Name returns "tri".
func (t *Tri) Name() string { return "tri" }

// Update records the resolved edge in the shared partial graph.
func (t *Tri) Update(i, j int, d float64) { t.g.AddEdge(i, j, d) }

// Bounds implements Algorithm 2 (Tri Scheme).
func (t *Tri) Bounds(i, j int) (float64, float64) {
	if i == j {
		return 0, 0
	}
	if w, ok := t.g.Weight(i, j); ok {
		return w, w
	}
	ni, wi := t.g.Row(i)
	nj, wj := t.g.Row(j)
	if len(nj) < len(ni) {
		// Stamp the smaller row, probe the larger: both bound formulas
		// are symmetric in the pair, so the swap changes no answer.
		ni, wi, nj, wj = nj, wj, ni, wi
	}
	t.mark(ni)
	lb, ub := t.probe(wi, nj, wj)
	return clamp(lb, ub, t.maxDist)
}

// mark stamps row ni into the intersection scratch under a fresh query
// id. A later probe recognises exactly these neighbours; stale stamps
// from earlier queries fail the qid test and never need clearing.
func (t *Tri) mark(ni []int32) {
	t.qid++
	for x, v := range ni {
		t.stamp[v] = t.qid
		t.pos[v] = int32(x)
	}
}

// probe scans row nj against the stamped row: every hit is a common
// neighbour — a triangle whose other two sides are known — and
// contributes one candidate interval. wi indexes by the stamped row's
// positions, wj by nj's. Common neighbours are visited in ascending id
// order (nj is sorted), the same order the sorted merge produced, so the
// accumulated interval is bit-identical to the merge's.
func (t *Tri) probe(wi []float64, nj []int32, wj []float64) (lb, ub float64) {
	lb, ub = 0, t.maxDist
	qid, stamp := t.qid, t.stamp
	if t.rho == 1 {
		// True-metric fast path: with ρ = 1 the relaxed formulas below
		// reduce exactly (x/1 and 1·x are IEEE identities), and the two
		// divisions per triangle disappear from the hot loop.
		for y, v := range nj {
			if stamp[v] == qid {
				a, b := wi[t.pos[v]], wj[y]
				if d := a - b; d > lb {
					lb = d
				} else if d := b - a; d > lb {
					lb = d
				}
				if s := a + b; s < ub {
					ub = s
				}
			}
		}
		return lb, ub
	}
	for y, v := range nj {
		if stamp[v] == qid {
			a, b := wi[t.pos[v]], wj[y]
			if d := a/t.rho - b; d > lb {
				lb = d
			} else if d := b/t.rho - a; d > lb {
				lb = d
			}
			if s := t.rho * (a + b); s < ub {
				ub = s
			}
		}
	}
	return lb, ub
}

// BoundsBatch implements BatchBounder: it answers every (is[x], js[x])
// pair in input order, writing into lb[x]/ub[x], and returns how many
// pairs it derived — those neither self-pairs nor resolved. Consecutive
// pairs sharing an anchor (first object) form a run, which stamps the
// anchor's row into the intersection scratch once; a self-pair never
// ends a run. While the anchor stays stamped a pair is resolved exactly
// when its second object carries the stamp, and the stamped position
// holds the weight, so no pair pays a known-map lookup. The in-repo
// emitters are anchor-contiguous (a kNN or Prim row, an NSW frontier,
// PAM's point×medoid grid) or carry one pair per anchor (PAM's swap
// column, which no grouping could shorten); an interleaved batch stays
// correct and pays one stamp per anchor change.
//
// A run's unresolved pairs are answered one of two ways, whichever
// visits fewer adjacency cells: probing each pair's own row against the
// stamp (Σ deg(j) over the unresolved pairs), or one neighbour-major
// sweep of the anchor's neighbour rows (Σ deg(w) over the anchor's
// neighbours), which reaches every triangle of every pair at once.
func (t *Tri) BoundsBatch(is, js []int, lb, ub []float64) int {
	if len(is) != len(js) || len(is) != len(lb) || len(is) != len(ub) {
		panic("bounds: BoundsBatch slice lengths differ")
	}
	derived := 0
	for q := 0; q < len(is); {
		u := is[q]
		if u == js[q] {
			lb[q], ub[q] = 0, 0
			q++
			continue
		}
		end := q + 1
		for end < len(is) && (is[end] == u || is[end] == js[end]) {
			end++
		}
		derived += t.run(u, is[q:end], js[q:end], lb[q:end], ub[q:end])
		q = end
	}
	return derived
}

// run answers one anchor run: u is the first object of every pair that
// is not a self-pair. It stamps u's row, answers self-pairs and resolved
// pairs, and derives the rest by probe or by sweep, and returns how many
// it derived.
func (t *Tri) run(u int, is, js []int, lb, ub []float64) int {
	na, wa := t.g.Row(u)
	t.mark(na)
	qid, stamp := t.qid, t.stamp
	derived, probeCells := 0, 0
	for x, j := range js {
		switch {
		case is[x] == j:
			lb[x], ub[x] = 0, 0
		case stamp[j] == qid:
			w := wa[t.pos[j]]
			lb[x], ub[x] = w, w
		default:
			derived++
			probeCells += t.g.Degree(j)
		}
	}
	if derived == 0 {
		return 0
	}
	swept := t.sweepCheaper(na, probeCells)
	if swept {
		if t.acc == nil {
			t.acc = make([]span, len(t.stamp))
		}
		for x, j := range js {
			if is[x] != j && stamp[j] != qid {
				t.acc[j] = span{0, t.maxDist}
			}
		}
		t.sweep(na, wa)
	}
	for x, j := range js {
		if is[x] == j || stamp[j] == qid {
			continue
		}
		var l, h float64
		if swept {
			l, h = t.acc[j].lo, t.acc[j].hi
		}
		if !swept || math.IsNaN(l) || !(h > 0) {
			// The probe answers every pair of a probed run, and the
			// swept pairs whose folds may differ from its own: a fold
			// a NaN candidate reached (max/min carry NaN, the probe
			// skips it) and an upper bound of zero or less (min picks
			// −0 where the probe keeps the first zero it meets).
			nj, wj := t.g.Row(j)
			l, h = t.probe(wa, nj, wj)
		}
		lb[x], ub[x] = clamp(l, h, t.maxDist)
	}
	return derived
}

// sweepCheaper reports whether sweeping the anchor's neighbour rows
// visits fewer cells than probing the run's unresolved pairs, whose rows
// hold probeCells cells in all. It stops summing the neighbours' degrees
// as soon as the sweep has lost.
func (t *Tri) sweepCheaper(na []int32, probeCells int) bool {
	cells := 0
	for _, w := range na {
		if cells += t.g.Degree(int(w)); cells >= probeCells {
			return false
		}
	}
	return true
}

// sweep is the neighbour-major form of probe, LAESA's pivot-row scan
// with the anchor's neighbours as pivots: for every neighbour w of the
// stamped anchor it streams w's row once and folds the triangle
// (anchor, w, v) into acc[v] for each v in it. Every pair (anchor, v)
// thus receives exactly the candidates probe would give it, one per
// common neighbour, and since max and min are order-free the folded
// interval is probe's — except where a NaN candidate poisons the fold
// or a zero upper bound is reached, which run hands back to probe. The
// folds use the min/max builtins so the inner loop has no branch.
// Cells of objects outside the run are written too and never read: run
// resets the cells of its own pairs before the sweep.
func (t *Tri) sweep(na []int32, wa []float64) {
	acc, rho := t.acc, t.rho
	for x, w := range na {
		a := wa[x]
		nw, ww := t.g.Row(int(w))
		ww = ww[:len(nw)]
		if rho == 1 {
			// |a − b| is the larger of probe's a − b and b − a.
			for y, v := range nw {
				b := ww[y]
				c := &acc[v]
				c.lo = max(c.lo, math.Abs(a-b))
				c.hi = min(c.hi, a+b)
			}
			continue
		}
		ar := a / rho
		for y, v := range nw {
			b := ww[y]
			c := &acc[v]
			c.lo = max(c.lo, ar-b, b/rho-a)
			c.hi = min(c.hi, rho*(a+b))
		}
	}
}
