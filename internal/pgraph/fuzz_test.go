package pgraph

import (
	"math"
	"sort"
	"testing"
)

// model is the brute-force reference for the graph's rows: one
// neighbour → weight map per node, written independently of the rows so
// a bug must occur twice, identically, to escape the comparison.
type model []map[int]float64

func newModel(n int) model {
	m := make(model, n)
	for u := range m {
		m[u] = make(map[int]float64)
	}
	return m
}

func (m model) add(i, j int, w float64) {
	m[i][j] = w
	m[j][i] = w
}

// row returns u's neighbours in ascending id order with their weights.
func (m model) row(u int) ([]int32, []float64) {
	nbrs := make([]int32, 0, len(m[u]))
	for v := range m[u] {
		nbrs = append(nbrs, int32(v))
	}
	sort.Slice(nbrs, func(x, y int) bool { return nbrs[x] < nbrs[y] })
	weights := make([]float64, len(nbrs))
	for x, v := range nbrs {
		weights[x] = m[u][int(v)]
	}
	return nbrs, weights
}

// triIntersect folds the Tri bounds over the common neighbours of i and
// j. The fuzz weights are positive and finite, so the fold's order does
// not matter.
func (m model) triIntersect(i, j int) (lb, ub float64) {
	lb, ub = 0, 1
	for l, wi := range m[i] {
		if wj, ok := m[j][l]; ok {
			lb = max(lb, math.Abs(wi-wj))
			ub = min(ub, wi+wj)
		}
	}
	return lb, ub
}

// FuzzStoreVsModel feeds an arbitrary interleaved schedule of edge
// insertions, re-adds and queries to the graph and to the model, and
// fails on any divergence in Weight (both argument orders, every pair,
// out-of-range pairs), Degree, row order and content, the Tri-style
// intersection, or the rows' headroom bound. A re-add of a resolved pair
// must be a no-op at the same weight and must panic at another. The byte
// stream is decoded two bytes per operation, so the fuzzer explores row
// move schedules (many inserts on few nodes, a hub row beside short
// ones) as well as query-heavy mixes.
func FuzzStoreVsModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 0, 251, 1})
	f.Add([]byte{7, 7, 7, 8, 7, 9, 7, 10, 7, 11, 7, 12, 250, 7})
	f.Add([]byte{0, 255, 16, 32, 250, 16, 252, 0})
	f.Add([]byte{5, 1, 5, 2, 5, 3, 5, 4, 5, 6, 1, 2, 2, 5, 1, 5, 252, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 24
		g := New(n)
		ref := newModel(n)
		nextW := 0.0 // distinct deterministic weights, 0 < w ≤ 1

		for k := 0; k+1 < len(data); k += 2 {
			a, b := data[k], data[k+1]
			switch {
			case a < 250: // insert edge (a%n, b%n), or re-add it if known
				i, j := int(a)%n, int(b)%n
				if i == j {
					continue
				}
				if w, ok := ref[i][j]; ok {
					checkReAdd(t, g, i, j, w)
					continue
				}
				nextW += 1.0 / 1024
				if nextW > 1 {
					nextW = 1.0 / 1024
				}
				g.AddEdge(i, j, nextW)
				ref.add(i, j, nextW)
			case a == 250: // full-row audit of node b%n
				checkRow(t, g, ref, int(b)%n)
			case a == 251: // intersection audit of (b%n, b%n+1)
				i := int(b) % n
				checkIntersect(t, g, ref, i, (i+1)%n)
			default: // global audit
				checkAll(t, g, ref)
			}
		}
		checkAll(t, g, ref)
	})
}

// checkReAdd re-adds the resolved pair (i, j): at its weight, from the
// other side, the store must not change; at another weight AddEdge must
// panic, also leaving the store unchanged.
func checkReAdd(t *testing.T, g *Graph, i, j int, w float64) {
	t.Helper()
	before := g.Stats()
	g.AddEdge(j, i, w)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("conflicting re-add of (%d,%d) did not panic", i, j)
			}
		}()
		g.AddEdge(i, j, w+1)
	}()
	if after := g.Stats(); after != before {
		t.Fatalf("re-adds of (%d,%d) changed the store: %+v → %+v", i, j, before, after)
	}
}

func checkRow(t *testing.T, g *Graph, ref model, u int) {
	t.Helper()
	nbrs, weights := g.Row(u)
	want, wantW := ref.row(u)
	if g.Degree(u) != len(want) || len(nbrs) != len(want) {
		t.Fatalf("node %d: degree %d, row %d, model %d", u, g.Degree(u), len(nbrs), len(want))
	}
	for x := range want {
		if nbrs[x] != want[x] || weights[x] != wantW[x] {
			t.Fatalf("Row(%d)[%d] = (%d,%v), model (%d,%v)", u, x, nbrs[x], weights[x], want[x], wantW[x])
		}
	}
}

func checkIntersect(t *testing.T, g *Graph, ref model, i, j int) {
	t.Helper()
	// Flat-row sorted merge over the store under test.
	lb, ub := 0.0, 1.0
	ni, wi := g.Row(i)
	nj, wj := g.Row(j)
	x, y := 0, 0
	for x < len(ni) && y < len(nj) {
		switch {
		case ni[x] == nj[y]:
			if d := math.Abs(wi[x] - wj[y]); d > lb {
				lb = d
			}
			if s := wi[x] + wj[y]; s < ub {
				ub = s
			}
			x++
			y++
		case ni[x] < nj[y]:
			x++
		default:
			y++
		}
	}
	if rlb, rub := ref.triIntersect(i, j); lb != rlb || ub != rub {
		t.Fatalf("intersection (%d,%d) = [%v,%v], model [%v,%v]", i, j, lb, ub, rlb, rub)
	}
}

func checkAll(t *testing.T, g *Graph, ref model) {
	t.Helper()
	m := 0
	for i := -1; i <= g.N(); i++ {
		for j := -1; j <= g.N(); j++ {
			w, ok := g.Weight(i, j)
			var want float64
			var wantOK bool
			if i >= 0 && i < g.N() {
				want, wantOK = ref[i][j]
			}
			if ok != wantOK || w != want {
				t.Fatalf("Weight(%d,%d) = (%v,%v), model (%v,%v)", i, j, w, ok, want, wantOK)
			}
			if ok {
				m++
			}
		}
	}
	if g.M() != m/2 {
		t.Fatalf("M() = %d, model %d", g.M(), m/2)
	}
	for u := 0; u < g.N(); u++ {
		checkRow(t, g, ref, u)
	}
	st := g.Stats()
	if st.Live != 2*g.M() {
		t.Fatalf("stats: Live = %d, want 2·M = %d", st.Live, 2*g.M())
	}
	checkHeadroom(t, g)
}
