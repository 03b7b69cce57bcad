package pgraph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := New(4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("N,M = %d,%d; want 4,0", g.N(), g.M())
	}
	if g.Known(0, 1) {
		t.Fatal("edge known in empty graph")
	}
	dist := make([]float64, 4)
	NewSearcher(g).Run(0, dist)
	if dist[0] != 0 || !math.IsInf(dist[1], 1) {
		t.Fatalf("dist = %v; want [0 +Inf +Inf +Inf]", dist)
	}
}

func TestKeySymmetry(t *testing.T) {
	if Key(3, 7) != Key(7, 3) {
		t.Fatal("Key not symmetric")
	}
	if Key(3, 7) == Key(3, 8) {
		t.Fatal("Key collision")
	}
}

func TestAddEdge(t *testing.T) {
	g := New(5)
	g.AddEdge(1, 3, 0.8)
	g.AddEdge(3, 4, 0.1)
	if w, ok := g.Weight(3, 1); !ok || w != 0.8 {
		t.Fatalf("Weight(3,1) = %v,%v; want 0.8,true", w, ok)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.Degree(3) != 2 || g.Degree(0) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(3), g.Degree(0))
	}
	// Duplicate with equal weight: no-op.
	g.AddEdge(3, 1, 0.8)
	if g.M() != 2 || g.Degree(1) != 1 || g.Degree(3) != 2 {
		t.Fatalf("duplicate add changed M to %d, degrees to %d %d", g.M(), g.Degree(1), g.Degree(3))
	}
}

func TestAddEdgePanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	g := New(3)
	assertPanics("self edge", func() { g.AddEdge(1, 1, 0.5) })
	assertPanics("out of range", func() { g.AddEdge(0, 3, 0.5) })
	g.AddEdge(0, 1, 0.5)
	assertPanics("conflicting weight", func() { g.AddEdge(0, 1, 0.6) })
}

// paperGraph builds the 7-object running example of Figure 1 (weights are
// representative; the test only relies on values we set here).
func paperGraph() *Graph {
	g := New(7)
	g.AddEdge(1, 3, 0.8)
	g.AddEdge(3, 4, 0.1)
	g.AddEdge(2, 3, 0.3)
	g.AddEdge(2, 4, 0.4)
	g.AddEdge(1, 5, 0.2)
	g.AddEdge(2, 5, 0.9)
	g.AddEdge(0, 6, 0.5)
	g.AddEdge(0, 1, 0.7)
	return g
}

func TestDijkstraPaperExample(t *testing.T) {
	g := paperGraph()
	dist := make([]float64, 7)
	NewSearcher(g).Run(1, dist)
	// 1->3 direct 0.8; via 2: 1->5 (0.2) + 5->2 (0.9) + 2->3 (0.3) = 1.4.
	if dist[3] != 0.8 {
		t.Fatalf("dist[3] = %v, want 0.8", dist[3])
	}
	if got, want := dist[4], 0.8+0.1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("dist[4] = %v, want %v", got, want)
	}
	if dist[0] != 0.7 {
		t.Fatalf("dist[0] = %v, want 0.7", dist[0])
	}
	if got, want := dist[6], 0.7+0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("dist[6] = %v, want %v", got, want)
	}
}

// bellmanFord is a reference shortest-path implementation for
// cross-checks over the edges a test inserted.
func bellmanFord(n int, edges []Edge, src int) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range edges {
			if d := dist[e.U] + e.W; d < dist[e.V] {
				dist[e.V] = d
				changed = true
			}
			if d := dist[e.V] + e.W; d < dist[e.U] {
				dist[e.U] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		m := rng.Intn(n * 2)
		var edges []Edge
		for e := 0; e < m; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j || g.Known(i, j) {
				continue
			}
			w := rng.Float64()
			g.AddEdge(i, j, w)
			edges = append(edges, Edge{U: i, V: j, W: w})
		}
		src := rng.Intn(n)
		got := make([]float64, n)
		NewSearcher(g).Run(src, got)
		want := bellmanFord(n, edges, src)
		for v := range got {
			if math.Abs(got[v]-want[v]) > 1e-9 && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("n=%d src=%d v=%d: dijkstra %v vs bellman-ford %v", n, src, v, got[v], want[v])
			}
		}
	}
}

func TestRunToEarlyExit(t *testing.T) {
	g := paperGraph()
	s := NewSearcher(g)
	dist := make([]float64, 7)
	d := s.RunTo(1, 4, dist)
	if math.Abs(d-0.9) > 1e-12 {
		t.Fatalf("RunTo(1,4) = %v, want 0.9", d)
	}
	// Unreachable target.
	g2 := New(4)
	g2.AddEdge(0, 1, 0.3)
	s2 := NewSearcher(g2)
	dist2 := make([]float64, 4)
	if d := s2.RunTo(0, 3, dist2); !math.IsInf(d, 1) {
		t.Fatalf("RunTo to unreachable = %v, want +Inf", d)
	}
}

func TestSearcherReuse(t *testing.T) {
	g := paperGraph()
	s := NewSearcher(g)
	a := make([]float64, 7)
	b := make([]float64, 7)
	s.Run(1, a)
	s.Run(1, b) // second run must be identical
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reused Searcher diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Searcher must observe edges added after construction.
	g.AddEdge(1, 6, 0.05)
	s.Run(1, a)
	if a[6] != 0.05 {
		t.Fatalf("Searcher missed new edge: dist[6] = %v", a[6])
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := New(10)
	for _, v := range []int{7, 2, 9, 4} {
		g.AddEdge(5, v, float64(v)/10)
	}
	nbrs, weights := g.Row(5)
	keys := make([]int, len(nbrs))
	for i, v := range nbrs {
		keys[i] = int(v)
	}
	if !sort.IntsAreSorted(keys) {
		t.Fatalf("adjacency keys unsorted: %v", keys)
	}
	for i, v := range nbrs {
		if w, ok := g.Weight(5, int(v)); !ok || w != weights[i] {
			t.Fatalf("row weight mismatch at %d: %v vs known %v", v, weights[i], w)
		}
	}
}

func TestQuickTriangleClosure(t *testing.T) {
	// Property: shortest-path distances satisfy the triangle inequality
	// among themselves (they form a metric closure on the reachable set).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12
		g := New(n)
		for e := 0; e < 24; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j || g.Known(i, j) {
				continue
			}
			g.AddEdge(i, j, rng.Float64())
		}
		sp := make([][]float64, n)
		for i := range sp {
			sp[i] = make([]float64, n)
			NewSearcher(g).Run(i, sp[i])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if sp[i][j] > sp[i][k]+sp[k][j]+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
