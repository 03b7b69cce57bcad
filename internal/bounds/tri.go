package bounds

import (
	"math"
	"slices"

	"metricprox/internal/pgraph"
)

// Tri is the Triangle Induced Solution Scheme of Section 4.2
// (Algorithm 2). For an unknown edge (i, j) it inspects only the triangles
// (i, j, l) whose other two sides are known:
//
//	lb = max over common neighbours l of |w(i,l) − w(j,l)|
//	ub = min over common neighbours l of  w(i,l) + w(j,l)
//
// The common neighbours come from intersecting the two sorted adjacency
// rows of the partial graph (one id slice and one weight slice per
// node). Rather than a two-cursor sorted merge (whose key comparisons
// are data-dependent branches the CPU cannot predict), the intersection
// stamps one row, with its weights, into
// per-object scratch and probes the other — two sequential scans, the
// probe selecting each cell's candidates by its stamp test rather than
// branching on it (probeBits), no per-query allocation. Expected query
// cost stays O(deg i + deg j) = O(m/n) (Theorem 4.2); updates are the
// sorted-row insertions done by the shared partial graph.
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
// A landmark's row is complete once the bootstrap has resolved it: it
// holds every other object, so it is one column of LAESA's pivot table,
// the baseline the paper compares Tri against. Its neighbour ids are
// implicit (cell y is object y, or y+1 past the landmark), and the sweep
// folds complete rows four at a time over runs of consecutive objects
// without loading a single id, comparing the candidates as integers
// (foldCells). The anchor's other rows keep the scatter fold
// (foldSparse).
//
// The bounds are looser than SPLUB's — only paths of length 2 are
// considered — but queries avoid both Dijkstra bottlenecks, which is why
// the paper crowns Tri the practical choice for large instances.
type Tri struct {
	g       *pgraph.Graph
	maxDist float64
	rho     float64 // relaxation factor; 1 = true metric

	// Intersection scratch, sized n at construction: stamp[v] == qid
	// marks v as a neighbour of the currently stamped row and val[v]
	// holds the weight of its edge to the row's object, so a probe of
	// the other row finds each common neighbour's side in O(1) with no
	// clearing between queries (qid advances instead). val[v] is stale
	// wherever the stamp is. Guarded by the session lock like the graph
	// itself.
	stamp []uint64
	val   []float64
	qid   uint64

	// Sweep accumulators of a general run, allocated on its first
	// neighbour-major sweep (16n bytes): lo[s] and hi[s] fold the
	// candidate interval of the pair (anchor, v) in v's slot s (see
	// slot). Only the slots of the current run's pairs are read; the
	// rest hold stale folds. A canonical row folds straight into its own
	// lb and ub instead. Guarded by the session lock like the stamps.
	lo, hi []float64
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
		val:     make([]float64, g.N()),
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
	ni, wi := t.g.Row(i)
	nj, wj := t.g.Row(j)
	if len(nj) < len(ni) {
		// Stamp the smaller row, probe the larger: both bound formulas
		// are symmetric in the pair, so the swap changes no answer.
		i, j = j, i
		ni, wi, nj, wj = nj, wj, ni, wi
	}
	t.mark(ni, wi)
	if t.stamp[j] == t.qid {
		// j is in i's stamped row: the pair is resolved, and the stamp
		// holds its weight, as in BoundsBatch.
		w := t.val[j]
		return w, w
	}
	lb, ub := t.probe(nj, wj)
	return clamp(lb, ub, t.maxDist)
}

// mark stamps row ni, with its weights wi, into the intersection scratch
// under a fresh query id. A later probe recognises exactly these
// neighbours; stale stamps from earlier queries fail the qid test and
// never need clearing.
func (t *Tri) mark(ni []int32, wi []float64) {
	t.qid++
	wi = wi[:len(ni)]
	for x, v := range ni {
		t.stamp[v] = t.qid
		t.val[v] = wi[x]
	}
}

// probe scans row nj, with its weights wj, against the stamped row:
// every hit is a common neighbour — a triangle whose other two sides are
// known — and contributes one candidate interval. Common neighbours are
// visited in ascending id order (nj is sorted), the same order the
// sorted merge produced, so the accumulated interval is bit-identical to
// the merge's. At ρ = 1 the branch-free probeBits answers unless it
// hands the pair back to the float scan below.
func (t *Tri) probe(nj []int32, wj []float64) (lb, ub float64) {
	if t.rho == 1 {
		if lb, ub = probeBits(nj, wj, t.stamp, t.val, t.qid, t.maxDist); !math.IsNaN(lb) && ub > 0 {
			return lb, ub
		}
	}
	// The float scan: with ρ = 1 its formulas reduce exactly (x/1 and
	// 1·x are IEEE identities). It skips NaN candidates and keeps the
	// first zero upper bound it meets.
	qid, stamp, val := t.qid, t.stamp, t.val
	wj = wj[:len(nj)]
	lb, ub = 0, t.maxDist
	for y, v := range nj {
		if stamp[v] == qid {
			a, b := val[v], wj[y]
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

// probeBits is probe at ρ = 1 with no data-dependent branch: every cell
// of nj computes |a−b| and a+b as int64 bit patterns, as foldCells does,
// and the stamp test only selects between them and the neutral pair
// (0, MaxInt64), which no max or min takes, so a missed cell's stale val
// never counts. The result is the float scan's bits unless lb comes out
// NaN or ub not above 0; probe hands those two cases back to the float
// scan, as settle does for foldCells, and foldCells' comment is the
// proof.
func probeBits(nj []int32, wj []float64, stamp []uint64, val []float64, qid uint64, maxDist float64) (lb, ub float64) {
	wj = wj[:len(nj)]
	l, h := int64(0), int64(math.Float64bits(maxDist))
	for y, v := range nj {
		a, b := val[v], wj[y]
		d, s := absBits(a-b), sumBits(a, b)
		if stamp[v] != qid {
			d, s = 0, math.MaxInt64
		}
		l, h = max(l, d), min(h, s)
	}
	return math.Float64frombits(uint64(l)), math.Float64frombits(uint64(h))
}

// settle is the one exit of every interval a batch derives; scalar
// Bounds ends in the same clamp. lo[y] and hi[y] belong to the pair
// (anchor, j+y): settle turns their sweep fold into the pair's interval
// in place when swept is set, probes j+y's row against the stamped
// anchor row otherwise, and clamps. The probe also answers the swept
// pairs whose folds may differ from its own: a fold a NaN candidate
// reached (the folds carry NaN, the probe skips it) and an upper bound
// of zero or less (the float folds may pick −0 where the probe keeps the
// first zero it meets, and the integer folds order negative values
// backwards).
func (t *Tri) settle(lo, hi []float64, swept bool, j int) {
	hi = hi[:len(lo)]
	maxDist := t.maxDist
	for y := range lo {
		l, h := lo[y], hi[y]
		if !swept || math.IsNaN(l) || !(h > 0) {
			nj, wj := t.g.Row(j + y)
			l, h = t.probe(nj, wj)
		}
		lo[y], hi[y] = clamp(l, h, maxDist)
	}
}

// BoundsBatch implements BatchBounder: it answers every (is[x], js[x])
// pair in input order, writing into lb[x]/ub[x], and returns how many
// pairs it derived — those neither self-pairs nor resolved. Consecutive
// pairs sharing an anchor (first object) form a run, which stamps the
// anchor's row into the intersection scratch once; a self-pair never
// ends a run. While the anchor stays stamped a pair is resolved exactly
// when its second object carries the stamp, and the stamp scratch
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
//
// A run that is a canonical row — the anchor against every other object
// in id order — takes the row path (see row), which needs no per-pair
// classification and folds straight into lb and ub. Every in-process kNN
// row asks that shape. A remote client's row prefetch asks it only while
// the client's mirror holds none of the row's pairs, since the client
// leaves known pairs out; a shorter prefetch is a general run.
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
		if t.isRow(u, is[q:], js[q:]) {
			end := q + t.g.N() - 1
			derived += t.row(u, lb[q:end], ub[q:end])
			q = end
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

// slot is object v's place in a row that leaves u out: v, or v−1 past
// u. In a canonical row of u (see isRow) the pair (u, v) sits at slot(v,
// u), and in the complete row of u object v's cell does.
func slot(v, u int) int {
	if v > u {
		return v - 1
	}
	return v
}

// isRow reports whether the pairs open with a canonical row of u: the
// pair (u, v) for every object v ≠ u, in increasing v. A graph of one
// object has no canonical row, so the row path always consumes a pair.
func (t *Tri) isRow(u int, is, js []int) bool {
	m := t.g.N() - 1
	if m < 1 || len(js) < m {
		return false
	}
	is = is[:m]
	for x, j := range js[:m] {
		v := x
		if x >= u {
			v++
		}
		if j != v || is[x] != u {
			return false
		}
	}
	return true
}

// row answers a canonical row of u in one fused pass and returns how
// many pairs it derived: every pair but those of u's neighbours. The
// pair (u, v) sits in slot(v, u) of lb and ub, so the sweep folds into
// them directly, with no scratch and no per-pair classification:
//
//   - the sweep-versus-probe choice comes from degrees alone, in
//     O(deg u): probing reads every row but u's and its neighbours',
//     2M − deg u − Σ deg w cells;
//   - the first complete block initialises every slot it reaches
//     (foldComplete), so no reset pass precedes the sweep;
//   - the derived pairs leave through settle, slot by slot between u's
//     neighbours, and the resolved pairs are written last, from u's row.
func (t *Tri) row(u int, lb, ub []float64) int {
	na, wa := t.g.Row(u)
	derived := len(lb) - len(na)
	if derived > 0 {
		t.mark(na, wa)
		cells := 0
		for _, w := range na {
			cells += t.g.Degree(int(w))
		}
		swept := cells < 2*t.g.M()-len(na)-cells
		if swept {
			if !t.foldComplete(u, na, wa, lb, ub) {
				for x := range lb {
					lb[x], ub[x] = 0, t.maxDist
				}
			}
			t.foldSparse(u, na, wa, lb, ub)
		}
		// Settle the objects between consecutive neighbours of u, each
		// gap split at u: their slots are consecutive too.
		s, n := 0, len(lb)+1
		for k := 0; k <= len(na); k++ {
			e := n
			if k < len(na) {
				e = int(na[k])
			}
			if s <= u && u < e {
				t.settle(lb[s:u], ub[s:u], swept, s)
				s = u + 1
			}
			d := slot(s, u)
			t.settle(lb[d:d+e-s], ub[d:d+e-s], swept, s)
			s = e + 1
		}
	}
	for k, w := range na {
		x := slot(int(w), u)
		lb[x], ub[x] = wa[k], wa[k]
	}
	return derived
}

// run answers one anchor run: u is the first object of every pair that
// is not a self-pair. It stamps u's row, answers self-pairs and resolved
// pairs, and derives the rest by probe or by sweep, and returns how many
// it derived.
func (t *Tri) run(u int, is, js []int, lb, ub []float64) int {
	na, wa := t.g.Row(u)
	t.mark(na, wa)
	qid, stamp := t.qid, t.stamp
	derived, probeCells := 0, 0
	for x, j := range js {
		switch {
		case is[x] == j:
			lb[x], ub[x] = 0, 0
		case stamp[j] == qid:
			w := t.val[j]
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
		if t.lo == nil {
			t.lo, t.hi = make([]float64, len(t.stamp)-1), make([]float64, len(t.stamp)-1)
		}
		if !t.foldComplete(u, na, wa, t.lo, t.hi) {
			for x, j := range js {
				if is[x] != j {
					s := slot(j, u)
					t.lo[s], t.hi[s] = 0, t.maxDist
				}
			}
		}
		t.foldSparse(u, na, wa, t.lo, t.hi)
	}
	for x, j := range js {
		if is[x] == j || stamp[j] == qid {
			continue
		}
		if swept {
			s := slot(j, u)
			lb[x], ub[x] = t.lo[s], t.hi[s]
		}
		t.settle(lb[x:x+1], ub[x:x+1], swept, j)
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

// foldComplete and foldSparse are the neighbour-major sweep, the batch
// form of probe and LAESA's pivot-row scan with the anchor's neighbours
// as pivots: for every neighbour w of the anchor u they stream w's row
// once and fold the triangle (u, w, v) into the slot of each v in it
// (see slot). Every pair (u, v) thus receives exactly the candidates
// probe would give it, one per common neighbour, and since max and min
// are order-free the folded interval is probe's — except where settle
// hands the pair back to probe. Slots of pairs outside the run are
// written too and never read.
//
// foldComplete folds u's complete neighbour rows, four rows per pass
// (fold4), before foldSparse folds the rest, and reports whether it
// folded any. The first pass initialises every slot it writes, which is
// every slot but those of its own rows, resolved pairs that nobody
// reads; so when foldComplete reports true the accumulators need no
// reset. A last block of fewer than four rows repeats one of them:
// folding a row twice changes no max or min. At ρ ≠ 1 it folds nothing
// and foldSparse takes every row.
func (t *Tri) foldComplete(u int, na []int32, wa []float64, lo, hi []float64) bool {
	if t.rho != 1 {
		return false
	}
	full := t.g.N() - 1
	var blk [4]int // positions in na of the block's rows
	k, folded := 0, false
	for x, w := range na {
		if t.g.Degree(int(w)) != full {
			continue
		}
		blk[k] = x
		if k++; k == len(blk) {
			t.fold4(u, na, wa, blk, lo, hi, !folded)
			k, folded = 0, true
		}
	}
	if k > 0 {
		for ; k < len(blk); k++ {
			blk[k] = blk[k-1]
		}
		t.fold4(u, na, wa, blk, lo, hi, !folded)
		folded = true
	}
	return folded
}

// fold4 folds the four complete rows at positions blk of u's row na
// into the slot accumulators. Each row leaves out its own object and the
// slots leave out u; between those five objects every row and the slots
// advance in step, so each segment of consecutive objects is one
// foldCells call on plain sub-slices. The five objects themselves need
// no fold: u has no slot, and each row's object is u's neighbour, a
// resolved pair.
func (t *Tri) fold4(u int, na []int32, wa []float64, blk [4]int, lo, hi []float64, init bool) {
	var w [4]int
	var a [4]float64
	var rows [4][]float64
	for k, x := range blk {
		w[k], a[k] = int(na[x]), wa[x]
		_, rows[k] = t.g.Row(w[k])
	}
	cut := [5]int{w[0], w[1], w[2], w[3], u}
	slices.Sort(cut[:])
	s, n := 0, t.g.N()
	for c := 0; c <= len(cut); c++ {
		e := n
		if c < len(cut) {
			e = cut[c]
		}
		if l := e - s; l > 0 {
			var b [4][]float64
			for k := range b {
				o := slot(s, w[k])
				b[k] = rows[k][o : o+l]
			}
			d := slot(s, u)
			foldCells(lo[d:d+l], hi[d:d+l], b, a, init, t.maxDist)
		}
		s = e + 1
	}
}

// foldCells is the complete rows' kernel: cell y of b[k] and a[k] are
// the two known sides of the triangle through the pair in slot y, and
// it folds |a−b| into lo[y] by max and a+b into hi[y] by min, starting
// from (0, maxDist) when init is set.
//
// It compares the candidates as int64 bit patterns, one CMP+CMOV each,
// where the float min/max builtins must also order NaN and ±0. For
// floats whose sign bit is clear, bit order is numeric order with every
// NaN above +Inf, and |a−b| always has a clear sign bit: so lo ends as
// probe's lower bound, or a NaN exactly when a NaN candidate occurred.
// hi ends as probe's upper bound when every a+b has a clear sign bit;
// a candidate whose sign bit is set (−0, a negative value, a NaN with
// the sign set) sorts below all of those, so hi ends sign-set, at or
// below zero or NaN. Those are the two cases settle hands back to
// probe, and foldSparse's float folds keep them (they carry NaN and
// keep the lowest value), so outside them the interval is probe's bits.
func foldCells(lo, hi []float64, b [4][]float64, a [4]float64, init bool, maxDist float64) {
	hi = hi[:len(lo)]
	b0, b1, b2, b3 := b[0][:len(lo)], b[1][:len(lo)], b[2][:len(lo)], b[3][:len(lo)]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	top := int64(math.Float64bits(maxDist))
	for y := range lo {
		l, h := int64(0), top
		if !init {
			l, h = int64(math.Float64bits(lo[y])), int64(math.Float64bits(hi[y]))
		}
		x0, x1, x2, x3 := b0[y], b1[y], b2[y], b3[y]
		l = max(l, absBits(a0-x0), absBits(a1-x1), absBits(a2-x2), absBits(a3-x3))
		h = min(h, sumBits(a0, x0), sumBits(a1, x1), sumBits(a2, x2), sumBits(a3, x3))
		lo[y], hi[y] = math.Float64frombits(uint64(l)), math.Float64frombits(uint64(h))
	}
}

// absBits is |x|'s bit pattern as an int64: x's with the sign bit clear.
func absBits(x float64) int64 { return int64(math.Float64bits(x) &^ (1 << 63)) }

// sumBits is a+b's bit pattern as an int64.
func sumBits(a, b float64) int64 { return int64(math.Float64bits(a + b)) }

// foldSparse is the scatter fold of every neighbour row of u that
// foldComplete left out: for each cell (v, b) of w's row it folds the
// triangle (u, w, v) into v's slot. Row w holds u itself, which closes
// no triangle, and the objects past u sit one slot down, so a binary
// search for u's cell splits the row in two. The folds use the min/max
// builtins so the inner loop has no branch.
func (t *Tri) foldSparse(u int, na []int32, wa []float64, lo, hi []float64) {
	full := t.g.N() - 1
	for x, w := range na {
		nw, ww := t.g.Row(int(w))
		if t.rho == 1 && len(nw) == full {
			continue
		}
		p, _ := slices.BinarySearch(nw, int32(u))
		t.scatter(wa[x], nw[:p], ww[:p], lo, hi, 0)
		t.scatter(wa[x], nw[p+1:], ww[p+1:], lo, hi, 1)
	}
}

// scatter folds the cells (nw[y], ww[y]) of one neighbour row, whose
// edge to the anchor weighs a, into slot nw[y]−shift of lo and hi.
func (t *Tri) scatter(a float64, nw []int32, ww []float64, lo, hi []float64, shift int32) {
	ww = ww[:len(nw)]
	rho := t.rho
	if rho == 1 {
		// |a − b| is the larger of probe's a − b and b − a.
		for y, v := range nw {
			s, b := v-shift, ww[y]
			lo[s] = max(lo[s], math.Abs(a-b))
			hi[s] = min(hi[s], a+b)
		}
		return
	}
	ar := a / rho
	for y, v := range nw {
		s, b := v-shift, ww[y]
		lo[s] = max(lo[s], ar-b, b/rho-a)
		hi[s] = min(hi[s], rho*(a+b))
	}
}
