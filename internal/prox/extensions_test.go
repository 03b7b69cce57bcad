package prox

import (
	"math"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

// --- KCenter ---

// refKCenter mirrors the Gonzalez traversal directly over the matrix.
func refKCenter(m metric.Space, k int) KCenterResult {
	n := m.Len()
	minDist := make([]float64, n)
	assign := make([]int, n)
	for x := range minDist {
		minDist[x] = math.Inf(1)
	}
	var res KCenterResult
	res.Assign = assign
	c := 0
	for round := 0; round < k; round++ {
		res.Centers = append(res.Centers, c)
		minDist[c] = 0
		assign[c] = round
		for x := 0; x < n; x++ {
			if d := m.Distance(c, x); d < minDist[x] {
				minDist[x] = d
				assign[x] = round
			}
		}
		far, farD := -1, -1.0
		for x := 0; x < n; x++ {
			if minDist[x] > farD {
				far, farD = x, minDist[x]
			}
		}
		c = far
	}
	for x := 0; x < n; x++ {
		if minDist[x] > res.Radius {
			res.Radius = minDist[x]
		}
	}
	return res
}

func TestKCenterMatchesReference(t *testing.T) {
	m := datasets.RandomMetric(50, 41)
	want := refKCenter(m, 5)
	for _, sc := range []core.Scheme{core.SchemeNoop, core.SchemeTri, core.SchemeSPLUB} {
		s, _ := sessionFor(m, sc, nil)
		got := KCenter(s, 5)
		if math.Abs(got.Radius-want.Radius) > 1e-12 {
			t.Fatalf("scheme %v: radius %v, want %v", sc, got.Radius, want.Radius)
		}
		for i := range want.Centers {
			if got.Centers[i] != want.Centers[i] {
				t.Fatalf("scheme %v: centers %v, want %v", sc, got.Centers, want.Centers)
			}
		}
	}
}

func TestKCenterSavesCalls(t *testing.T) {
	m := datasets.UrbanGB(120, 42)
	noop, oN := sessionFor(m, core.SchemeNoop, nil)
	KCenter(noop, 8)
	tri, oT := sessionFor(m, core.SchemeTri, nil)
	KCenter(tri, 8)
	if oT.Calls() >= oN.Calls() {
		t.Fatalf("Tri k-center made %d calls, Noop %d", oT.Calls(), oN.Calls())
	}
}

func TestKCenterDegenerate(t *testing.T) {
	m := datasets.RandomMetric(6, 43)
	s, _ := sessionFor(m, core.SchemeTri, nil)
	res := KCenter(s, 10) // k > n clamps
	if len(res.Centers) != 6 || res.Radius != 0 {
		t.Fatalf("k>n: %d centers, radius %v", len(res.Centers), res.Radius)
	}
}

// --- TSP ---

func tourValid(t *testing.T, tour Tour, n int) {
	t.Helper()
	if len(tour.Order) != n {
		t.Fatalf("tour visits %d cities, want %d", len(tour.Order), n)
	}
	seen := make([]bool, n)
	for _, c := range tour.Order {
		if seen[c] {
			t.Fatalf("city %d visited twice", c)
		}
		seen[c] = true
	}
}

func tourLength(m metric.Space, order []int) float64 {
	sum := 0.0
	for i := range order {
		sum += m.Distance(order[i], order[(i+1)%len(order)])
	}
	return sum
}

func TestTSPApprox(t *testing.T) {
	m := datasets.RandomMetric(40, 44)
	s, _ := sessionFor(m, core.SchemeTri, nil)
	tour := TSPApprox(s)
	tourValid(t, tour, 40)
	if math.Abs(tour.Length-tourLength(m, tour.Order)) > 1e-9 {
		t.Fatalf("tour length %v, recomputed %v", tour.Length, tourLength(m, tour.Order))
	}
	// 2-approximation guarantee: tour ≤ 2 × MST weight... and MST ≤ tour.
	ref, _ := sessionFor(m, core.SchemeNoop, nil)
	mst := PrimMST(ref)
	if tour.Length > 2*mst.Weight+1e-9 {
		t.Fatalf("tour %v exceeds 2×MST %v", tour.Length, 2*mst.Weight)
	}
	if tour.Length < mst.Weight-1e-9 {
		t.Fatalf("tour %v below MST weight %v — impossible", tour.Length, mst.Weight)
	}
}

func TestTSPNearestNeighbourIdenticalAcrossSchemes(t *testing.T) {
	m := datasets.RandomMetric(35, 45)
	base, _ := sessionFor(m, core.SchemeNoop, nil)
	want := TSPNearestNeighbour(base)
	tourValid(t, want, 35)
	for _, sc := range []core.Scheme{core.SchemeTri, core.SchemeSPLUB} {
		s, _ := sessionFor(m, sc, nil)
		got := TSPNearestNeighbour(s)
		for i := range want.Order {
			if got.Order[i] != want.Order[i] {
				t.Fatalf("scheme %v: tour diverged at position %d", sc, i)
			}
		}
	}
}

func TestTSPNearestNeighbourSavesCalls(t *testing.T) {
	m := datasets.SFPOI(100, 46)
	noop, oN := sessionFor(m, core.SchemeNoop, nil)
	TSPNearestNeighbour(noop)
	tri, oT := sessionFor(m, core.SchemeTri, nil)
	TSPNearestNeighbour(tri)
	if oT.Calls() >= oN.Calls() {
		t.Fatalf("Tri NN-tour made %d calls, Noop %d", oT.Calls(), oN.Calls())
	}
}

func TestTwoOptImprovesAndMatches(t *testing.T) {
	m := datasets.RandomMetric(30, 47)
	base, _ := sessionFor(m, core.SchemeNoop, nil)
	start := TSPNearestNeighbour(base)
	improvedBase := TwoOpt(base, start, 10)
	tourValid(t, improvedBase, 30)
	if improvedBase.Length > start.Length+1e-9 {
		t.Fatalf("2-opt worsened the tour: %v -> %v", start.Length, improvedBase.Length)
	}
	// Identical trajectory under bounds.
	tri, oT := sessionFor(m, core.SchemeTri, nil)
	startTri := TSPNearestNeighbour(tri)
	improvedTri := TwoOpt(tri, startTri, 10)
	if math.Abs(improvedTri.Length-improvedBase.Length) > 1e-9 {
		t.Fatalf("2-opt diverged across schemes: %v vs %v", improvedTri.Length, improvedBase.Length)
	}
	_ = oT
}

// --- Single linkage ---

func TestSingleLinkageStructure(t *testing.T) {
	m := datasets.RandomMetric(25, 48)
	s, _ := sessionFor(m, core.SchemeTri, nil)
	d := SingleLinkage(s)
	if d.N != 25 || len(d.Merges) != 24 {
		t.Fatalf("dendrogram has %d merges over %d leaves", len(d.Merges), d.N)
	}
	// Merge distances are nondecreasing.
	for i := 1; i < len(d.Merges); i++ {
		if d.Merges[i].Dist < d.Merges[i-1].Dist {
			t.Fatalf("merge distances not sorted at %d", i)
		}
	}
	// Cut below the first merge: all singletons. Above the last: one cluster.
	if got := d.Clusters(d.Merges[0].Dist / 2); got != 25 {
		t.Fatalf("cut below first merge: %d clusters, want 25", got)
	}
	if got := d.Clusters(1.1); got != 1 {
		t.Fatalf("cut above last merge: %d clusters, want 1", got)
	}
	// Cutting between merge i and i+1 yields n-(i+1) clusters (distinct
	// weights assumed — continuous data).
	mid := (d.Merges[10].Dist + d.Merges[11].Dist) / 2
	if got := d.Clusters(mid); got != 25-11 {
		t.Fatalf("cut after 11 merges: %d clusters, want %d", got, 25-11)
	}
}

func TestSingleLinkageFindsPlantedClusters(t *testing.T) {
	// Two tight groups far apart must separate at a 2-cluster cut.
	pts := [][]float64{
		{0.01}, {0.02}, {0.03}, {0.04},
		{0.91}, {0.92}, {0.93}, {0.94},
	}
	v := metric.NewVectors(pts, 1, 1)
	o := metric.NewOracle(v)
	s := core.NewSession(o, core.SchemeTri)
	d := SingleLinkage(s)
	labels := d.CutAt(0.5)
	for i := 1; i < 4; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("group A split: %v", labels)
		}
	}
	for i := 5; i < 8; i++ {
		if labels[i] != labels[4] {
			t.Fatalf("group B split: %v", labels)
		}
	}
	if labels[0] == labels[4] {
		t.Fatalf("groups merged: %v", labels)
	}
}

// --- Boruvka ---

func TestBoruvkaMatchesPrim(t *testing.T) {
	m := datasets.RandomMetric(26, 49)
	ref, _ := sessionFor(m, core.SchemeNoop, nil)
	want := PrimMST(ref)
	for _, sc := range []core.Scheme{core.SchemeNoop, core.SchemeTri, core.SchemeSPLUB} {
		s, _ := sessionFor(m, sc, nil)
		got := BoruvkaMST(s)
		if math.Abs(got.Weight-want.Weight) > 1e-9 || !sameEdges(got.Edges, want.Edges) {
			t.Fatalf("scheme %v: Boruvka weight %v vs Prim %v", sc, got.Weight, want.Weight)
		}
	}
}

func TestBoruvkaSavesCalls(t *testing.T) {
	m := datasets.UrbanGB(64, 50)
	noop, oN := sessionFor(m, core.SchemeNoop, nil)
	BoruvkaMST(noop)
	tri, oT := sessionFor(m, core.SchemeTri, nil)
	BoruvkaMST(tri)
	if oT.Calls() >= oN.Calls() {
		t.Fatalf("Tri Boruvka made %d calls, Noop %d", oT.Calls(), oN.Calls())
	}
}
