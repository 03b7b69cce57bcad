package prox

import (
	"math"
	"sort"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/pgraph"
)

// refMST is a reference Prim over the raw matrix (no session machinery).
func refMST(m *metric.Matrix) MST {
	n := m.Len()
	inTree := make([]bool, n)
	key := make([]float64, n)
	parent := make([]int, n)
	for i := range key {
		key[i] = math.Inf(1)
		parent[i] = -1
	}
	inTree[0] = true
	for v := 1; v < n; v++ {
		key[v] = m.Distance(0, v)
		parent[v] = 0
	}
	var out MST
	for added := 1; added < n; added++ {
		best, bestKey := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !inTree[v] && key[v] < bestKey {
				best, bestKey = v, key[v]
			}
		}
		inTree[best] = true
		out.Edges = append(out.Edges, normEdge(parent[best], best, bestKey))
		out.Weight += bestKey
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := m.Distance(best, v); d < key[v] {
					key[v] = d
					parent[v] = best
				}
			}
		}
	}
	return out
}

func edgeSet(es []pgraph.Edge) map[[2]int]bool {
	s := map[[2]int]bool{}
	for _, e := range es {
		s[[2]int{e.U, e.V}] = true
	}
	return s
}

func sameEdges(a, b []pgraph.Edge) bool {
	sa, sb := edgeSet(a), edgeSet(b)
	if len(sa) != len(sb) {
		return false
	}
	for k := range sa {
		if !sb[k] {
			return false
		}
	}
	return true
}

func sessionFor(m metric.Space, scheme core.Scheme, landmarks []int) (*core.Session, *metric.Oracle) {
	o := metric.NewOracle(m)
	s := core.NewSessionWithLandmarks(o, scheme, landmarks)
	return s, o
}

var allGraphSchemes = []core.Scheme{
	core.SchemeNoop, core.SchemeSPLUB, core.SchemeTri,
	core.SchemeADM, core.SchemeLAESA, core.SchemeTLAESA,
}

func TestPrimMatchesReference(t *testing.T) {
	m := datasets.RandomMetric(30, 1)
	want := refMST(m)
	s, _ := sessionFor(m, core.SchemeNoop, nil)
	got := PrimMST(s)
	if math.Abs(got.Weight-want.Weight) > 1e-9 || !sameEdges(got.Edges, want.Edges) {
		t.Fatalf("Prim weight %v vs reference %v, edges match: %v",
			got.Weight, want.Weight, sameEdges(got.Edges, want.Edges))
	}
}

func TestPrimOutputIdenticalAcrossSchemes(t *testing.T) {
	m := datasets.RandomMetric(24, 2)
	want := refMST(m)
	landmarks := core.PickLandmarks(24, 5, 7)
	for _, sc := range allGraphSchemes {
		s, _ := sessionFor(m, sc, landmarks)
		s.Bootstrap(landmarks)
		got := PrimMST(s)
		if math.Abs(got.Weight-want.Weight) > 1e-9 || !sameEdges(got.Edges, want.Edges) {
			t.Fatalf("scheme %v: MST diverged (weight %v vs %v)", sc, got.Weight, want.Weight)
		}
	}
}

func TestPrimWithoutPlugResolvesAllPairs(t *testing.T) {
	n := 20
	m := datasets.RandomMetric(n, 3)
	s, o := sessionFor(m, core.SchemeNoop, nil)
	PrimMST(s)
	if want := int64(n * (n - 1) / 2); o.Calls() != want {
		t.Fatalf("Without Plug Prim made %d calls, want %d", o.Calls(), want)
	}
}

func TestPrimTriSavesCalls(t *testing.T) {
	n := 64
	m := datasets.SFPOI(n, 4)
	noop, oN := sessionFor(m, core.SchemeNoop, nil)
	PrimMST(noop)
	tri, oT := sessionFor(m, core.SchemeTri, nil)
	PrimMST(tri)
	if oT.Calls() >= oN.Calls() {
		t.Fatalf("Tri Prim made %d calls, Noop %d — no savings", oT.Calls(), oN.Calls())
	}
}

func TestKruskalMatchesPrim(t *testing.T) {
	m := datasets.RandomMetric(28, 5)
	want := refMST(m)
	for _, sc := range []core.Scheme{core.SchemeNoop, core.SchemeTri, core.SchemeSPLUB} {
		s, _ := sessionFor(m, sc, nil)
		got := KruskalMST(s)
		if math.Abs(got.Weight-want.Weight) > 1e-9 || !sameEdges(got.Edges, want.Edges) {
			t.Fatalf("scheme %v: Kruskal weight %v vs reference %v", sc, got.Weight, want.Weight)
		}
	}
}

func TestKruskalTriSavesCalls(t *testing.T) {
	n := 48
	m := datasets.UrbanGB(n, 6)
	landmarks := core.PickLandmarks(n, 6, 8)
	noop, oN := sessionFor(m, core.SchemeNoop, nil)
	KruskalMST(noop)
	tri, oT := sessionFor(m, core.SchemeTri, landmarks)
	tri.Bootstrap(landmarks)
	KruskalMST(tri)
	if oT.Calls() >= oN.Calls() {
		t.Fatalf("Tri Kruskal made %d calls, Noop %d", oT.Calls(), oN.Calls())
	}
}

func TestMSTTinyUniverse(t *testing.T) {
	m := datasets.RandomMetric(2, 7)
	s, _ := sessionFor(m, core.SchemeTri, nil)
	got := PrimMST(s)
	if len(got.Edges) != 1 || math.Abs(got.Weight-m.Distance(0, 1)) > 1e-12 {
		t.Fatalf("n=2 MST wrong: %+v", got)
	}
	s2, _ := sessionFor(m, core.SchemeTri, nil)
	if got := KruskalMST(s2); len(got.Edges) != 1 {
		t.Fatalf("n=2 Kruskal wrong: %+v", got)
	}
}

// refKNN computes the k nearest neighbours by full sort.
func refKNN(m *metric.Matrix, k int) [][]Neighbor {
	n := m.Len()
	out := make([][]Neighbor, n)
	for u := 0; u < n; u++ {
		var ns []Neighbor
		for v := 0; v < n; v++ {
			if v != u {
				ns = append(ns, Neighbor{ID: v, Dist: m.Distance(u, v)})
			}
		}
		SortNeighbors(ns)
		out[u] = ns[:k]
	}
	return out
}

func knnEqual(a, b [][]Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return false
		}
		// Compare as sets of ids (distances follow from ids).
		ai := make([]int, len(a[u]))
		bi := make([]int, len(b[u]))
		for x := range a[u] {
			ai[x], bi[x] = a[u][x].ID, b[u][x].ID
		}
		sort.Ints(ai)
		sort.Ints(bi)
		for x := range ai {
			if ai[x] != bi[x] {
				return false
			}
		}
	}
	return true
}

func TestKNNGraphMatchesReference(t *testing.T) {
	m := datasets.RandomMetric(30, 9)
	want := refKNN(m, 4)
	landmarks := core.PickLandmarks(30, 5, 10)
	for _, sc := range allGraphSchemes {
		s, _ := sessionFor(m, sc, landmarks)
		s.Bootstrap(landmarks)
		got := KNNGraph(s, 4)
		if !knnEqual(got, want) {
			t.Fatalf("scheme %v: kNN graph diverged", sc)
		}
	}
}

func TestKNNGraphSavesCalls(t *testing.T) {
	n := 60
	m := datasets.SFPOI(n, 11)
	noop, oN := sessionFor(m, core.SchemeNoop, nil)
	KNNGraph(noop, 5)
	landmarks := core.PickLandmarks(n, 6, 12)
	tri, oT := sessionFor(m, core.SchemeTri, landmarks)
	tri.Bootstrap(landmarks)
	KNNGraph(tri, 5)
	if oT.Calls() >= oN.Calls() {
		t.Fatalf("Tri kNN made %d calls, Noop %d", oT.Calls(), oN.Calls())
	}
}

func TestKNNGraphKClamped(t *testing.T) {
	m := datasets.RandomMetric(5, 13)
	s, _ := sessionFor(m, core.SchemeNoop, nil)
	g := KNNGraph(s, 10)
	for u := range g {
		if len(g[u]) != 4 {
			t.Fatalf("node %d has %d neighbours, want 4", u, len(g[u]))
		}
	}
}

func TestPAMIdenticalAcrossSchemes(t *testing.T) {
	m := datasets.RandomMetric(40, 14)
	base, _ := sessionFor(m, core.SchemeNoop, nil)
	want := PAM(base, 4, 99)
	landmarks := core.PickLandmarks(40, 5, 15)
	for _, sc := range allGraphSchemes[1:] {
		s, _ := sessionFor(m, sc, landmarks)
		s.Bootstrap(landmarks)
		got := PAM(s, 4, 99)
		if math.Abs(got.Cost-want.Cost) > 1e-9 {
			t.Fatalf("scheme %v: PAM cost %v vs %v", sc, got.Cost, want.Cost)
		}
		for i := range want.Medoids {
			if got.Medoids[i] != want.Medoids[i] {
				t.Fatalf("scheme %v: medoids %v vs %v", sc, got.Medoids, want.Medoids)
			}
		}
		for p := range want.Assign {
			if got.Assign[p] != want.Assign[p] {
				t.Fatalf("scheme %v: assignment diverged at %d", sc, p)
			}
		}
	}
}

func TestPAMImprovesCost(t *testing.T) {
	m := datasets.UrbanGB(50, 16)
	s, _ := sessionFor(m, core.SchemeTri, nil)
	res := PAM(s, 5, 1)
	// The medoid cost must beat random assignment cost by a wide margin on
	// clustered data; sanity: every point assigned to a real medoid.
	if len(res.Medoids) != 5 {
		t.Fatalf("medoid count %d", len(res.Medoids))
	}
	for p, mi := range res.Assign {
		if mi < 0 || mi >= 5 {
			t.Fatalf("point %d assigned to %d", p, mi)
		}
	}
	if res.Cost <= 0 || math.IsInf(res.Cost, 0) {
		t.Fatalf("degenerate cost %v", res.Cost)
	}
}

func TestPAMSavesCalls(t *testing.T) {
	m := datasets.UrbanGB(60, 17)
	noop, oN := sessionFor(m, core.SchemeNoop, nil)
	PAM(noop, 6, 5)
	tri, oT := sessionFor(m, core.SchemeTri, nil)
	PAM(tri, 6, 5)
	if oT.Calls() >= oN.Calls() {
		t.Fatalf("Tri PAM made %d calls, Noop %d", oT.Calls(), oN.Calls())
	}
}

func TestCLARANSIdenticalAcrossSchemes(t *testing.T) {
	m := datasets.RandomMetric(36, 18)
	cfg := CLARANSConfig{NumLocal: 2, MaxNeighbor: 60, Seed: 5}
	base, _ := sessionFor(m, core.SchemeNoop, nil)
	want := CLARANS(base, 4, cfg)
	for _, sc := range []core.Scheme{core.SchemeTri, core.SchemeSPLUB} {
		s, _ := sessionFor(m, sc, nil)
		got := CLARANS(s, 4, cfg)
		if math.Abs(got.Cost-want.Cost) > 1e-9 {
			t.Fatalf("scheme %v: CLARANS cost %v vs %v", sc, got.Cost, want.Cost)
		}
		for i := range want.Medoids {
			if got.Medoids[i] != want.Medoids[i] {
				t.Fatalf("scheme %v: medoids %v vs %v", sc, got.Medoids, want.Medoids)
			}
		}
	}
}

func TestCLARANSSavesCalls(t *testing.T) {
	m := datasets.UrbanGB(60, 19)
	cfg := CLARANSConfig{NumLocal: 2, MaxNeighbor: 80, Seed: 6}
	noop, oN := sessionFor(m, core.SchemeNoop, nil)
	CLARANS(noop, 6, cfg)
	tri, oT := sessionFor(m, core.SchemeTri, nil)
	CLARANS(tri, 6, cfg)
	if oT.Calls() >= oN.Calls() {
		t.Fatalf("Tri CLARANS made %d calls, Noop %d", oT.Calls(), oN.Calls())
	}
}

func TestClusteringDegenerateL(t *testing.T) {
	m := datasets.RandomMetric(8, 20)
	s, _ := sessionFor(m, core.SchemeTri, nil)
	res := PAM(s, 8, 1) // l == n: every point its own medoid
	if res.Cost != 0 {
		t.Fatalf("l=n cost %v, want 0", res.Cost)
	}
	s2, _ := sessionFor(m, core.SchemeTri, nil)
	res2 := PAM(s2, 1, 1)
	if len(res2.Medoids) != 1 {
		t.Fatalf("l=1 medoids %v", res2.Medoids)
	}
}

func TestPrimLazyMatchesPrim(t *testing.T) {
	m := datasets.RandomMetric(22, 21)
	want := refMST(m)
	for _, sc := range []core.Scheme{core.SchemeNoop, core.SchemeTri, core.SchemeSPLUB, core.SchemeADM} {
		s, _ := sessionFor(m, sc, nil)
		got := PrimMSTLazy(s)
		if math.Abs(got.Weight-want.Weight) > 1e-9 || !sameEdges(got.Edges, want.Edges) {
			t.Fatalf("scheme %v: lazy Prim weight %v vs reference %v", sc, got.Weight, want.Weight)
		}
	}
}

func TestPrimLazySavesCallsWithBounds(t *testing.T) {
	m := datasets.RandomMetric(30, 22)
	noop, oN := sessionFor(m, core.SchemeNoop, nil)
	PrimMSTLazy(noop)
	adm, oA := sessionFor(m, core.SchemeADM, nil)
	PrimMSTLazy(adm)
	if oA.Calls() >= oN.Calls() {
		t.Fatalf("ADM lazy Prim made %d calls, Noop %d", oA.Calls(), oN.Calls())
	}
}

// TestMSTWithMassiveTies drives all MST algorithms over degenerate metrics
// where most distances are equal — the adversarial case for the lazy
// Kruskal's pop-order reasoning and Prim's strict comparisons.
func TestMSTWithMassiveTies(t *testing.T) {
	n := 12
	build := func(d func(i, j int) float64) *metric.Matrix {
		mat := make([][]float64, n)
		for i := range mat {
			mat[i] = make([]float64, n)
			for j := range mat[i] {
				if i != j {
					mat[i][j] = d(i, j)
				}
			}
		}
		m, err := metric.NewMatrix(mat)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := map[string]*metric.Matrix{
		"uniform": build(func(i, j int) float64 { return 0.5 }),
		"two-valued": build(func(i, j int) float64 {
			if (i+j)%2 == 0 {
				return 0.6
			}
			return 0.4
		}),
	}
	for name, m := range cases {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: not a metric: %v", name, err)
		}
		wantWeight := refMST(m).Weight
		for _, sc := range []core.Scheme{core.SchemeNoop, core.SchemeTri, core.SchemeSPLUB} {
			for algoName, algo := range map[string]func(core.View) MST{
				"prim": PrimMST, "kruskal": KruskalMST, "boruvka": BoruvkaMST, "primlazy": PrimMSTLazy,
			} {
				s, _ := sessionFor(m, sc, nil)
				got := algo(s)
				if len(got.Edges) != n-1 {
					t.Fatalf("%s/%s/%v: %d edges", name, algoName, sc, len(got.Edges))
				}
				if math.Abs(got.Weight-wantWeight) > 1e-9 {
					t.Fatalf("%s/%s/%v: weight %v, want %v", name, algoName, sc, got.Weight, wantWeight)
				}
			}
		}
	}
}
