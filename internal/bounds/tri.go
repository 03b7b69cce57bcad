package bounds

import "metricprox/internal/pgraph"

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
}

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
// pairs it derived — those neither self-pairs nor resolved. A run of
// consecutive pairs sharing an anchor (first object) stamps the anchor's
// row into the intersection scratch once, when the anchor changes; while
// it stays stamped a pair is resolved exactly when its second object
// carries the stamp, and the stamped position holds the weight, so no
// pair pays a known-map lookup. The in-repo emitters are anchor-
// contiguous (a kNN or Prim row, an NSW frontier, PAM's point×medoid
// grid) or carry one pair per anchor (PAM's swap column, which no
// grouping could shorten), so a batch stamps each anchor row once; an
// interleaved batch stays correct and pays one stamp per anchor change.
func (t *Tri) BoundsBatch(is, js []int, lb, ub []float64) int {
	if len(is) != len(js) || len(is) != len(lb) || len(is) != len(ub) {
		panic("bounds: BoundsBatch slice lengths differ")
	}
	derived := 0
	anchor := -1
	var wa []float64
	for q, i := range is {
		j := js[q]
		if i == j {
			lb[q], ub[q] = 0, 0
			continue
		}
		if i != anchor {
			// A fresh qid per anchor change: stamps left by an earlier
			// anchor (or an earlier Bounds call) never match again.
			anchor = i
			var na []int32
			na, wa = t.g.Row(i)
			t.mark(na)
		}
		if t.stamp[j] == t.qid {
			w := wa[t.pos[j]]
			lb[q], ub[q] = w, w
			continue
		}
		nj, wj := t.g.Row(j)
		l, u := t.probe(wa, nj, wj)
		lb[q], ub[q] = clamp(l, u, t.maxDist)
		derived++
	}
	return derived
}
