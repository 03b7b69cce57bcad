package core

import (
	"math/rand"
	"testing"

	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

func newTestSession(t *testing.T, n int, seed int64, scheme Scheme, landmarks []int) (*Session, *metric.Matrix, *metric.Oracle) {
	t.Helper()
	m := datasets.RandomMetric(n, seed)
	o := metric.NewOracle(m)
	s := NewSessionWithLandmarks(o, scheme, landmarks)
	return s, m, o
}

func TestDistMemoisation(t *testing.T) {
	s, m, o := newTestSession(t, 10, 1, SchemeTri, nil)
	d1 := s.Dist(2, 7)
	d2 := s.Dist(7, 2)
	if d1 != d2 || d1 != m.Distance(2, 7) {
		t.Fatalf("Dist = %v/%v, want %v", d1, d2, m.Distance(2, 7))
	}
	if o.Calls() != 1 {
		t.Fatalf("oracle calls = %d, want 1 (memoised)", o.Calls())
	}
	if s.Dist(3, 3) != 0 {
		t.Fatal("self distance not 0")
	}
	if o.Calls() != 1 {
		t.Fatal("self distance hit the oracle")
	}
}

func TestKnownAndBounds(t *testing.T) {
	s, m, _ := newTestSession(t, 10, 2, SchemeTri, nil)
	if _, ok := s.Known(1, 2); ok {
		t.Fatal("pair known before resolution")
	}
	d := s.Dist(1, 2)
	if w, ok := s.Known(2, 1); !ok || w != d {
		t.Fatal("pair not known after resolution")
	}
	lb, ub := s.Bounds(1, 2)
	if lb != d || ub != d {
		t.Fatalf("resolved pair bounds [%v,%v], want exact %v", lb, ub, d)
	}
	lb, ub = s.Bounds(3, 3)
	if lb != 0 || ub != 0 {
		t.Fatal("self bounds not (0,0)")
	}
	_ = m
}

// exerciseComparisons runs a deterministic batch of Less/LessThan/
// DistIfLess calls and verifies every answer against ground truth.
func exerciseComparisons(t *testing.T, s *Session, m *metric.Matrix, seed int64, rounds int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := m.Len()
	for r := 0; r < rounds; r++ {
		i, j := rng.Intn(n), rng.Intn(n)
		k, l := rng.Intn(n), rng.Intn(n)
		if i == j || k == l || (i == k && j == l) {
			continue
		}
		want := m.Distance(i, j) < m.Distance(k, l)
		if got := s.Less(i, j, k, l); got != want {
			t.Fatalf("%s: Less(%d,%d,%d,%d) = %v, want %v", s.Bounder().Name(), i, j, k, l, got, want)
		}
		c := rng.Float64()
		if got, want := s.LessThan(i, j, c), m.Distance(i, j) < c; got != want {
			t.Fatalf("%s: LessThan(%d,%d,%v) = %v, want %v", s.Bounder().Name(), i, j, c, got, want)
		}
		d, less := s.DistIfLess(k, l, c)
		wantLess := m.Distance(k, l) < c
		if less != wantLess {
			t.Fatalf("%s: DistIfLess(%d,%d,%v) less = %v, want %v", s.Bounder().Name(), k, l, c, less, wantLess)
		}
		if less && d != m.Distance(k, l) {
			t.Fatalf("%s: DistIfLess returned %v, want %v", s.Bounder().Name(), d, m.Distance(k, l))
		}
	}
}

func TestComparisonsExactAllSchemes(t *testing.T) {
	// The framework's central guarantee: every scheme answers every
	// comparison exactly as ground truth.
	schemes := []Scheme{SchemeNoop, SchemeSPLUB, SchemeTri, SchemeADM, SchemeLAESA, SchemeTLAESA, SchemeHybrid}
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			for trial := int64(0); trial < 3; trial++ {
				n := 14
				landmarks := PickLandmarks(n, 4, trial)
				s, m, _ := newTestSession(t, n, 40+trial, sc, landmarks)
				s.Bootstrap(landmarks)
				exerciseComparisons(t, s, m, 70+trial, 300)
			}
		})
	}
}

func TestComparisonsExactDFT(t *testing.T) {
	// DFT is LP-heavy; use a small universe.
	s, m, _ := newTestSession(t, 7, 5, SchemeDFT, nil)
	exerciseComparisons(t, s, m, 6, 60)
	if s.Stats().SavedComparisons == 0 {
		t.Fatal("DFT never saved a comparison")
	}
}

func TestTriSavesCallsVersusNoop(t *testing.T) {
	run := func(scheme Scheme) int64 {
		m := datasets.RandomMetric(40, 77)
		o := metric.NewOracle(m)
		s := NewSession(o, scheme)
		rng := rand.New(rand.NewSource(78))
		for r := 0; r < 1500; r++ {
			i, j, k, l := rng.Intn(40), rng.Intn(40), rng.Intn(40), rng.Intn(40)
			if i == j || k == l {
				continue
			}
			s.Less(i, j, k, l)
		}
		return o.Calls()
	}
	noop, tri, splub := run(SchemeNoop), run(SchemeTri), run(SchemeSPLUB)
	if tri >= noop {
		t.Fatalf("Tri made %d calls, Noop %d — no savings", tri, noop)
	}
	if splub > tri {
		t.Fatalf("SPLUB (%d calls) should save at least as much as Tri (%d)", splub, tri)
	}
}

func TestStatsAccounting(t *testing.T) {
	s, _, o := newTestSession(t, 12, 9, SchemeSPLUB, nil)
	rng := rand.New(rand.NewSource(10))
	for r := 0; r < 200; r++ {
		i, j, k, l := rng.Intn(12), rng.Intn(12), rng.Intn(12), rng.Intn(12)
		if i == j || k == l {
			continue
		}
		s.Less(i, j, k, l)
	}
	st := s.Stats()
	if st.OracleCalls != o.Calls() {
		t.Fatalf("session counted %d calls, oracle %d", st.OracleCalls, o.Calls())
	}
	if st.SavedComparisons == 0 {
		t.Fatal("no comparisons saved by SPLUB on a dense workload")
	}
	if st.BoundProbes == 0 {
		t.Fatal("no bound probes recorded")
	}
}

func TestBootstrapCallCount(t *testing.T) {
	n, k := 64, 6
	landmarks := PickLandmarks(n, k, 3)
	s, _, o := newTestSession(t, n, 11, SchemeLAESA, landmarks)
	spent := s.Bootstrap(landmarks)
	want := int64(k*n - k - k*(k-1)/2)
	if spent != want || o.Calls() != want {
		t.Fatalf("bootstrap spent %d calls (oracle %d), want %d", spent, o.Calls(), want)
	}
	if s.Stats().BootstrapCalls != want {
		t.Fatalf("BootstrapCalls = %d, want %d", s.Stats().BootstrapCalls, want)
	}
	// Re-bootstrap costs nothing (all pairs memoised).
	if again := s.Bootstrap(landmarks); again != 0 {
		t.Fatalf("second bootstrap spent %d calls, want 0", again)
	}
}

func TestGreedyLandmarks(t *testing.T) {
	s, _, _ := newTestSession(t, 30, 13, SchemeTri, nil)
	lms := s.GreedyLandmarks(5)
	if len(lms) != 5 {
		t.Fatalf("got %d landmarks, want 5", len(lms))
	}
	seen := map[int]bool{}
	for _, l := range lms {
		if seen[l] {
			t.Fatalf("duplicate landmark %d", l)
		}
		seen[l] = true
	}
	// Every landmark row must be fully resolved.
	for _, l := range lms {
		for x := 0; x < 30; x++ {
			if x == l {
				continue
			}
			if _, ok := s.Known(l, x); !ok {
				t.Fatalf("landmark %d row missing object %d", l, x)
			}
		}
	}
}

// TestGreedyLandmarksPinned pins the exact landmark set (and call count)
// the greedy max-min rule returns for fixed seeds. The sets were captured
// from the pre-bitmap O(n·k²) implementation, so this is the proof that
// the O(n·k) selected-bitmap rewrite is behaviour-preserving.
func TestGreedyLandmarksPinned(t *testing.T) {
	cases := []struct {
		n, k  int
		seed  int64
		want  []int
		calls int64
	}{
		{40, 6, 77, []int{0, 31, 26, 20, 39, 25}, 219},
		{64, 8, 77, []int{0, 31, 26, 40, 20, 44, 11, 62}, 476},
		{30, 30, 5, []int{0, 20, 11, 14, 19, 3, 15, 13, 2, 9, 27, 12, 26, 5, 8, 1, 22, 16, 21, 18, 28, 23, 17, 6, 4, 29, 25, 24, 7, 10}, 435},
	}
	for _, tc := range cases {
		m := datasets.RandomMetric(tc.n, tc.seed)
		s := NewSession(metric.NewOracle(m), SchemeNoop)
		got := s.GreedyLandmarks(tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("n=%d k=%d: got %d landmarks, want %d", tc.n, tc.k, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("n=%d k=%d: landmarks %v, want %v", tc.n, tc.k, got, tc.want)
			}
		}
		if c := s.Stats().OracleCalls; c != tc.calls {
			t.Fatalf("n=%d k=%d: %d oracle calls, want %d", tc.n, tc.k, c, tc.calls)
		}
	}
}

func TestPickLandmarksDeterministic(t *testing.T) {
	a := PickLandmarks(100, 7, 42)
	b := PickLandmarks(100, 7, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PickLandmarks not deterministic")
		}
	}
	if len(PickLandmarks(5, 10, 1)) != 5 {
		t.Fatal("k > n not clamped")
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		SchemeNoop: "noop", SchemeSPLUB: "splub", SchemeTri: "tri",
		SchemeADM: "adm", SchemeLAESA: "laesa", SchemeTLAESA: "tlaesa",
		SchemeDFT: "dft", SchemeHybrid: "hybrid",
	}
	for sc, want := range names {
		if sc.String() != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(sc), sc.String(), want)
		}
	}
}

func TestMaxDistanceOption(t *testing.T) {
	m := datasets.RandomMetric(8, 21)
	o := metric.NewOracle(m)
	s := NewSession(o, SchemeTri, WithMaxDistance(0.75))
	if s.MaxDistance() != 0.75 {
		t.Fatalf("MaxDistance = %v", s.MaxDistance())
	}
	_, ub := s.Bounds(0, 1)
	if ub != 0.75 {
		t.Fatalf("initial ub = %v, want 0.75", ub)
	}
}

func TestSharedSessionInPackage(t *testing.T) {
	m := datasets.RandomMetric(15, 22)
	o := metric.NewOracle(m)
	s := Share(NewSession(o, SchemeTri))
	if s.N() != 15 || s.MaxDistance() != 1 {
		t.Fatalf("N/MaxDistance = %d/%v", s.N(), s.MaxDistance())
	}
	d := s.Dist(0, 1)
	if w, ok := s.Known(1, 0); !ok || w != d {
		t.Fatal("Known through shared view broken")
	}
	if lb, ub := s.Bounds(0, 1); lb != d || ub != d {
		t.Fatalf("Bounds = [%v,%v]", lb, ub)
	}
	want := m.Distance(0, 2) < m.Distance(3, 4)
	if got := s.Less(0, 2, 3, 4); got != want {
		t.Fatalf("Less = %v, want %v", got, want)
	}
	if got, want := s.LessThan(5, 6, 0.5), m.Distance(5, 6) < 0.5; got != want {
		t.Fatalf("LessThan = %v, want %v", got, want)
	}
	dd, less := s.DistIfLess(7, 8, 2)
	if !less || dd != m.Distance(7, 8) {
		t.Fatalf("DistIfLess = %v,%v", dd, less)
	}
}

func TestSessionAccessors(t *testing.T) {
	m := datasets.RandomMetric(6, 23)
	o := metric.NewOracle(m)
	s := NewSession(o, SchemeTri)
	if s.Graph() == nil || s.Bounder() == nil {
		t.Fatal("accessors returned nil")
	}
	if s.Bounder().Name() != "tri" {
		t.Fatalf("Bounder = %q", s.Bounder().Name())
	}
	exerciseComparisons(t, s, m, 24, 40)
}
