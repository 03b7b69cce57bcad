package core

import (
	"math"
	"testing"

	"metricprox/internal/bounds"
	"metricprox/internal/metric"
)

// TestDistIfLessAtTheCap holds decide's rule for a DistIfLess above the
// distance cap — no bound query, straight to the oracle — to what the
// comparison did with the query, on every scheme and at the thresholds
// maxDist, the next float above it, 2·maxDist (nsw, kNN rows, TSP) and
// +Inf (Prim's unset keys). Every pair of a small line metric is asked
// twice, so the second pass meets resolved pairs. Each call must answer
// (d, d < c), must move OracleCalls, SavedComparisons,
// ResolvedComparisons and CacheHits as the scheme's interval and DFT's
// comparator, asked first, say the probing rule would, and must move
// BoundProbes only for an unresolved pair with c ≤ maxDist.
//
// Objects 1 and 2 coincide, and 0 lies the whole cap from them, so the
// landmark 2 gives the pair (0, 1) the interval [maxDist, maxDist]: every
// interval scheme but noop must settle DistIfLess(0, 1, maxDist) "not
// less" without a call, which a rule that skipped at c ≥ maxDist would
// lose.
func TestDistIfLessAtTheCap(t *testing.T) {
	pos := []float64{0, 1, 1, 0.5, 0.25, 0.8, 0.6, 0.1}
	d := make([][]float64, len(pos))
	for i := range d {
		d[i] = make([]float64, len(pos))
		for j := range d[i] {
			d[i][j] = math.Abs(pos[i] - pos[j])
		}
	}
	m, err := metric.NewMatrix(d)
	if err != nil {
		t.Fatal(err)
	}
	const maxDist = 1 // the default cap, which every distance above meets
	landmarks := []int{2, 3}
	thresholds := []float64{maxDist, math.Nextafter(maxDist, math.Inf(1)), 2 * maxDist, math.Inf(1)}
	schemes := []Scheme{SchemeNoop, SchemeTri, SchemeSPLUB, SchemeADM, SchemeLAESA, SchemeTLAESA, SchemeHybrid, SchemeDFT}
	for _, sc := range schemes {
		for _, c := range thresholds {
			s := NewSessionWithLandmarks(metric.NewOracle(m), sc, landmarks)
			if sc != SchemeNoop {
				s.Bootstrap(landmarks)
			}
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < len(pos); i++ {
					for j := i + 1; j < len(pos); j++ {
						oracle := checkDistIfLessAtCap(t, s, m, i, j, c)
						if i == 0 && j == 1 && pass == 0 && c == maxDist && sc != SchemeNoop && sc != SchemeDFT && oracle {
							t.Errorf("%v: DistIfLess(0, 1, maxDist) called the oracle; the interval [maxDist, maxDist] settles it", sc)
						}
					}
				}
			}
		}
	}
}

// checkDistIfLessAtCap runs DistIfLess(i, j, c) on s and checks its
// answer against m and its Stats deltas against the probing rule's,
// reporting whether the call resolved the pair through the oracle.
func checkDistIfLessAtCap(t *testing.T, s *Session, m *metric.Matrix, i, j int, c float64) bool {
	t.Helper()
	// What the probing rule would have done: the cache, else the
	// scheme's interval, else DFT's comparator, else the oracle.
	w, known := s.Known(i, j)
	saved := false
	if !known {
		lb, ub := s.Bounds(i, j)
		less, decided := bounds.DecideLess(lb, ub, c, c)
		saved = decided && !less
		if !saved && s.cmp != nil {
			saved = s.cmp.ProveGEC(i, j, c)
		}
	}
	before := s.Stats()
	got, less := s.DistIfLess(i, j, c)
	after := s.Stats()

	name := s.b.Name()
	truth := m.Distance(i, j)
	switch {
	case known:
		if got != w || less != (w < c) {
			t.Errorf("%s: resolved DistIfLess(%d,%d,%v) = (%v,%v), want (%v,%v)", name, i, j, c, got, less, w, w < c)
		}
	case saved:
		if got != 0 || less || truth < c {
			t.Errorf("%s: settled DistIfLess(%d,%d,%v) = (%v,%v) with d = %v, want (0,false)", name, i, j, c, got, less, truth)
		}
	default:
		if got != truth || less != (truth < c) {
			t.Errorf("%s: DistIfLess(%d,%d,%v) = (%v,%v), want (%v,%v)", name, i, j, c, got, less, truth, truth < c)
		}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	resolved := !known && !saved
	for _, k := range []struct {
		what      string
		got, want int64
	}{
		{"OracleCalls", after.OracleCalls - before.OracleCalls, b2i(resolved)},
		{"ResolvedComparisons", after.ResolvedComparisons - before.ResolvedComparisons, b2i(resolved)},
		{"SavedComparisons", after.SavedComparisons - before.SavedComparisons, b2i(saved)},
		{"CacheHits", after.CacheHits - before.CacheHits, b2i(known)},
		{"BoundProbes", after.BoundProbes - before.BoundProbes, b2i(!known && c <= s.maxDist)},
	} {
		if k.got != k.want {
			t.Errorf("%s: DistIfLess(%d,%d,%v) moved %s by %d, want %d", name, i, j, c, k.what, k.got, k.want)
		}
	}
	return after.OracleCalls > before.OracleCalls
}
