package pgraph

import (
	"math/rand"
	"sort"
	"testing"
)

// TestFlatStoreSortedRows checks that every row stays sorted and complete
// under a random insertion order.
func TestFlatStoreSortedRows(t *testing.T) {
	const n = 64
	g := New(n)
	rng := rand.New(rand.NewSource(11))
	ref := make(map[int]map[int]float64)
	for e := 0; e < 600; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || g.Known(i, j) {
			continue
		}
		w := rng.Float64()
		g.AddEdge(i, j, w)
		for _, p := range [][2]int{{i, j}, {j, i}} {
			if ref[p[0]] == nil {
				ref[p[0]] = make(map[int]float64)
			}
			ref[p[0]][p[1]] = w
		}
	}
	for u := 0; u < n; u++ {
		nbrs, weights := g.Row(u)
		if len(nbrs) != len(ref[u]) || g.Degree(u) != len(ref[u]) {
			t.Fatalf("node %d: row len %d, degree %d, want %d", u, len(nbrs), g.Degree(u), len(ref[u]))
		}
		for x := 1; x < len(nbrs); x++ {
			if nbrs[x-1] >= nbrs[x] {
				t.Fatalf("node %d: row not strictly sorted at %d: %v", u, x, nbrs)
			}
		}
		for x, v := range nbrs {
			if w, ok := ref[u][int(v)]; !ok || w != weights[x] {
				t.Fatalf("node %d neighbour %d: weight %v, want %v (present %v)", u, v, weights[x], w, ok)
			}
		}
	}
}

// TestFlatStoreGrowthEpoch checks that relocations advance the epoch and
// that garbage is eventually compacted away.
func TestFlatStoreGrowthEpoch(t *testing.T) {
	const n = 512
	g := New(n)
	if g.Stats().Epoch != 0 {
		t.Fatalf("fresh store has nonzero epoch: %+v", g.Stats())
	}
	rng := rand.New(rand.NewSource(7))
	for g.M() < 20000 {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j && !g.Known(i, j) {
			g.AddEdge(i, j, rng.Float64())
		}
	}
	st := g.Stats()
	if st.Epoch == 0 {
		t.Fatal("no growth events despite thousands of inserts")
	}
	if st.Live != 2*g.M() {
		t.Fatalf("live cells %d, want 2*M = %d", st.Live, 2*g.M())
	}
	if st.Slab > 1024 && st.Dead > st.Slab/2 {
		t.Fatalf("compaction never ran: %d dead of %d slab cells", st.Dead, st.Slab)
	}
}

// TestFlatStoreCompaction drives one node's row through repeated doublings
// so the slab accumulates garbage and must compact, then checks the rows
// survived the move intact.
func TestFlatStoreCompaction(t *testing.T) {
	const n = 600
	g := New(n)
	// Star around node 0: its row doubles ~log2(n) times, abandoning
	// capacity each time, while the leaves keep minimal rows.
	for v := 1; v < n; v++ {
		g.AddEdge(0, v, float64(v))
	}
	st := g.Stats()
	if st.Dead > st.Slab/2 && st.Slab > 1024 {
		t.Fatalf("store left more than half the slab dead: %+v", st)
	}
	nbrs, weights := g.Row(0)
	if len(nbrs) != n-1 {
		t.Fatalf("hub row has %d entries, want %d", len(nbrs), n-1)
	}
	for x, v := range nbrs {
		if int(v) != x+1 || weights[x] != float64(v) {
			t.Fatalf("hub row corrupted at %d: (%d, %v)", x, v, weights[x])
		}
	}
	for v := 1; v < n; v++ {
		nb, ws := g.Row(v)
		if len(nb) != 1 || nb[0] != 0 || ws[0] != float64(v) {
			t.Fatalf("leaf %d row corrupted: %v %v", v, nb, ws)
		}
	}
}

// TestWeightLookup checks the row-search lookup in both argument orders
// and both row-size orders, and that absent, self and out-of-range pairs
// answer false without panicking.
func TestWeightLookup(t *testing.T) {
	g := New(16)
	g.AddEdge(3, 7, 0.25)
	g.AddEdge(3, 1, 0.5)
	g.AddEdge(3, 9, 0.75) // row 3 is now longer than rows 1, 7 and 9
	for _, p := range [][3]float64{{3, 7, 0.25}, {7, 3, 0.25}, {1, 3, 0.5}, {3, 1, 0.5}, {9, 3, 0.75}} {
		if w, ok := g.Weight(int(p[0]), int(p[1])); !ok || w != p[2] {
			t.Fatalf("Weight(%v,%v) = %v,%v; want %v,true", p[0], p[1], w, ok, p[2])
		}
	}
	for _, p := range [][2]int{{3, 2}, {7, 1}, {5, 6}, {3, 3}, {-1, 3}, {3, -1}, {16, 3}, {3, 16}, {1 << 40, 0}} {
		if w, ok := g.Weight(p[0], p[1]); ok || w != 0 {
			t.Fatalf("Weight(%d,%d) = %v,%v; want 0,false", p[0], p[1], w, ok)
		}
		if g.Known(p[0], p[1]) {
			t.Fatalf("Known(%d,%d) on an unresolved pair", p[0], p[1])
		}
	}
}

// TestSearcherWarmRunNoAlloc verifies a Searcher that has already run from
// another source gives the same answers as a fresh one and allocates
// nothing per run once warm.
func TestSearcherWarmRunNoAlloc(t *testing.T) {
	g := paperGraph()
	a := make([]float64, 7)
	b := make([]float64, 7)
	warm := NewSearcher(g)
	warm.Run(0, a)
	warm.Run(1, a)
	NewSearcher(g).Run(1, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("warm searcher diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	allocs := testing.AllocsPerRun(50, func() { warm.Run(1, a) })
	if allocs > 0 {
		t.Fatalf("warm Searcher.Run allocates %v per run, want 0", allocs)
	}
}

// TestRowViewsMatchSortedScan cross-checks Row against a sort of the
// inserted edges after heavy churn (many relocations and at least one compaction).
func TestRowViewsMatchSortedScan(t *testing.T) {
	const n = 300
	g := New(n)
	rng := rand.New(rand.NewSource(23))
	want := make(map[int][]int)
	for g.M() < 9000 {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j && !g.Known(i, j) {
			g.AddEdge(i, j, rng.Float64())
			want[i] = append(want[i], j)
			want[j] = append(want[j], i)
		}
	}
	for u := 0; u < n; u++ {
		sort.Ints(want[u])
		nbrs, _ := g.Row(u)
		if len(nbrs) != len(want[u]) {
			t.Fatalf("node %d: %d neighbours, want %d", u, len(nbrs), len(want[u]))
		}
		for x, v := range nbrs {
			if int(v) != want[u][x] {
				t.Fatalf("node %d position %d: %d, want %d", u, x, v, want[u][x])
			}
		}
	}
}
