package query

import (
	"math/rand"
	"sort"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
)

func refKNN(m metric.Space, q, k int) []Result {
	var all []Result
	for x := 0; x < m.Len(); x++ {
		if x != q {
			all = append(all, Result{ID: x, Dist: m.Distance(q, x)})
		}
	}
	sortResults(all)
	return all[:k]
}

func newSession(m metric.Space, sc core.Scheme, landmarks []int) (*core.Session, *metric.Oracle) {
	o := metric.NewOracle(m)
	s := core.NewSessionWithLandmarks(o, sc, landmarks)
	return s, o
}

// The kNN tests below drive single-object queries through prox.KNNRow,
// the one kNN scan every caller uses.

func TestKNNMatchesBruteForce(t *testing.T) {
	m := datasets.RandomMetric(80, 1)
	landmarks := core.PickLandmarks(80, 6, 2)
	for _, sc := range []core.Scheme{core.SchemeNoop, core.SchemeTri, core.SchemeSPLUB, core.SchemeLAESA} {
		s, _ := newSession(m, sc, landmarks)
		s.Bootstrap(landmarks)
		for q := 0; q < 80; q += 11 {
			want := refKNN(m, q, 5)
			got := prox.KNNRow(s, q, 5)
			if len(got) != 5 {
				t.Fatalf("scheme %v q=%d: %d results", sc, q, len(got))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("scheme %v q=%d: result %d = %d, want %d", sc, q, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

func TestKNNSavesCalls(t *testing.T) {
	m := datasets.SFPOI(200, 3)
	landmarks := core.PickLandmarks(200, 8, 4)
	noop, oN := newSession(m, core.SchemeNoop, nil)
	tri, oT := newSession(m, core.SchemeTri, landmarks)
	tri.Bootstrap(landmarks)
	for q := 0; q < 200; q += 10 {
		prox.KNNRow(noop, q, 5)
		prox.KNNRow(tri, q, 5)
	}
	if oT.Calls() >= oN.Calls() {
		t.Fatalf("Tri KNN made %d calls, Noop %d", oT.Calls(), oN.Calls())
	}
}

func TestKNNDegenerate(t *testing.T) {
	m := datasets.RandomMetric(5, 5)
	s, _ := newSession(m, core.SchemeTri, nil)
	if got := prox.KNNRow(s, 0, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := prox.KNNRow(s, 0, 99); len(got) != 4 {
		t.Fatalf("k>n returned %d results, want 4", len(got))
	}
}

// TestKNNTieHeavyQueriesMatchNoop runs single queries where ties are the
// rule: Levenshtein over 32-base sequences scaled by 1/32, so every
// distance is an exact multiple of 1/32 and many candidates tie at the
// k-th distance. Each bound scheme must answer every query exactly as
// the unmodified scan does, ties at the k-th place included.
func TestKNNTieHeavyQueriesMatchNoop(t *testing.T) {
	const n, k = 250, 5
	_, m := datasets.DNA(n, 32, 42)
	rng := rand.New(rand.NewSource(42))
	queries := make([]int, 40)
	for i := range queries {
		queries[i] = rng.Intn(n)
	}
	landmarks := core.PickLandmarks(n, 8, 42)
	noop, _ := newSession(m, core.SchemeNoop, nil)
	want := make([][]prox.Neighbor, len(queries))
	ties := 0
	for x, q := range queries {
		want[x] = prox.KNNRow(noop, q, k)
		kth := want[x][k-1].Dist
		for v := 0; v < n; v++ {
			if d, _ := noop.Known(q, v); v != q && d == kth {
				ties++
			}
		}
	}
	if ties <= len(queries) {
		t.Fatalf("only %d candidates at the k-th distance over %d queries: the data has no ties to test", ties, len(queries))
	}
	for _, sc := range []core.Scheme{core.SchemeTri, core.SchemeSPLUB, core.SchemeLAESA} {
		s, _ := newSession(m, sc, landmarks)
		s.Bootstrap(landmarks)
		for x, q := range queries {
			got := prox.KNNRow(s, q, k)
			for i := range want[x] {
				if got[i] != want[x][i] {
					t.Fatalf("scheme %v query %d: result %d = %+v, noop %+v", sc, q, i, got[i], want[x][i])
				}
			}
		}
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	m := datasets.RandomMetric(70, 6)
	rng := rand.New(rand.NewSource(7))
	for _, sc := range []core.Scheme{core.SchemeNoop, core.SchemeTri} {
		s, _ := newSession(m, sc, nil)
		for trial := 0; trial < 15; trial++ {
			q := rng.Intn(70)
			r := 0.1 + rng.Float64()*0.3
			got := Range(s, q, r)
			want := map[int]float64{}
			for x := 0; x < 70; x++ {
				if x != q && m.Distance(q, x) <= r {
					want[x] = m.Distance(q, x)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("scheme %v q=%d r=%v: %d results, want %d", sc, q, r, len(got), len(want))
			}
			for _, res := range got {
				if wd, ok := want[res.ID]; !ok || wd != res.Dist {
					t.Fatalf("scheme %v: wrong result %+v", sc, res)
				}
			}
		}
	}
}

func TestRangeIDsMatchesRange(t *testing.T) {
	m := datasets.RandomMetric(70, 8)
	landmarks := core.PickLandmarks(70, 6, 9)
	s, _ := newSession(m, core.SchemeTri, landmarks)
	s.Bootstrap(landmarks)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 15; trial++ {
		q := rng.Intn(70)
		r := 0.1 + rng.Float64()*0.3
		full := Range(s, q, r)
		ids := RangeIDs(s, q, r)
		sort.Ints(ids)
		wantIDs := make([]int, len(full))
		for i, res := range full {
			wantIDs[i] = res.ID
		}
		sort.Ints(wantIDs)
		if len(ids) != len(wantIDs) {
			t.Fatalf("q=%d r=%v: RangeIDs %d, Range %d", q, r, len(ids), len(wantIDs))
		}
		for i := range ids {
			if ids[i] != wantIDs[i] {
				t.Fatalf("q=%d r=%v: id sets differ", q, r)
			}
		}
	}
}

func TestRangeIDsSavesMoreThanRange(t *testing.T) {
	m := datasets.UrbanGB(150, 11)
	landmarks := core.PickLandmarks(150, 7, 12)
	mk := func() *core.Session {
		s, _ := newSession(m, core.SchemeTri, landmarks)
		s.Bootstrap(landmarks)
		return s
	}
	s1, s2 := mk(), mk()
	for q := 0; q < 150; q += 7 {
		Range(s1, q, 0.25)
		RangeIDs(s2, q, 0.25)
	}
	if s2.Stats().OracleCalls > s1.Stats().OracleCalls {
		t.Fatalf("RangeIDs made %d calls, Range %d — upper-bound inclusion saved nothing",
			s2.Stats().OracleCalls, s1.Stats().OracleCalls)
	}
}

func TestAESAMatchesBruteForce(t *testing.T) {
	m := datasets.RandomMetric(60, 13)
	a := BuildAESA(m)
	if a.ConstructionCalls() != 60*59/2 {
		t.Fatalf("construction calls = %d, want %d", a.ConstructionCalls(), 60*59/2)
	}
	for q := 0; q < 60; q += 9 {
		want := refKNN(m, q, 4)
		got, _ := a.NN(4, q, func(x int) float64 { return m.Distance(q, x) })
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("q=%d: AESA result %d = %d, want %d", q, i, got[i].ID, want[i].ID)
			}
		}
	}
}

func TestAESAQueryCallsSublinear(t *testing.T) {
	// AESA's selling point: per-query calls far below n after quadratic
	// preprocessing.
	m := datasets.SFPOI(300, 14)
	a := BuildAESA(m)
	total := int64(0)
	queries := 0
	for q := 0; q < 300; q += 5 {
		_, calls := a.NN(3, q, func(x int) float64 { return m.Distance(q, x) })
		total += calls
		queries++
	}
	if avg := float64(total) / float64(queries); avg > 100 {
		t.Fatalf("AESA averaged %.1f calls/query on n=300 — elimination broken", avg)
	}
}
