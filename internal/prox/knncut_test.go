package prox

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
)

// cutModel is what the k-th-upper-bound cut does on one row, read off the
// full-heap scan: kept candidates have lb ≤ T, the row's k-th smallest
// upper bound, and refilled says the heap of those ran dry while the scan
// could still admit a waiting one.
type cutModel struct {
	kept     int
	refilled bool
}

// heapified is how many candidates the cut scan puts in its heap.
func (m cutModel) heapified(rowLen int) int {
	if m.refilled {
		return rowLen
	}
	return m.kept
}

// refKNNRow is the row scan as it ran before the cut: every candidate
// enters the heap, and the running top-k is re-sorted on each admission.
// It makes the same view calls in the same order, so it is the reference
// the cut scan must match call for call. It also reports the cut's model
// of the row, which touches no view.
func refKNNRow(s core.View, u, k int) ([]Neighbor, cutModel) {
	n := s.N()
	lbs, ubs := make([]float64, 0, n-1), make([]float64, 0, n-1)
	if bb, ok := s.(core.BatchBoundsView); ok {
		var is, js []int
		for v := 0; v < n; v++ {
			if v != u {
				is, js = append(is, u), append(js, v)
			}
		}
		lbs, ubs = lbs[:n-1], ubs[:n-1]
		bb.BoundsBatch(is, js, lbs, ubs)
	} else {
		prefetchRow(s, u, n)
		for v := 0; v < n; v++ {
			if v != u {
				lb, ub := s.Bounds(u, v)
				lbs, ubs = append(lbs, lb), append(ubs, ub)
			}
		}
	}
	var all []Neighbor
	for v, x := 0, 0; v < n; v++ {
		if v != u {
			all = append(all, Neighbor{ID: v, Dist: lbs[x]})
			x++
		}
	}
	var cands MinHeap
	cands.init(all)

	sorted := slices.Clone(ubs)
	sort.Float64s(sorted)
	cut := sorted[k-1]
	var m cutModel
	for _, lb := range lbs {
		if !(lb > cut) {
			m.kept++
		}
	}

	best := make([]Neighbor, 0, k+1)
	kth := s.MaxDistance() * 2
	kthID := -1
	for pops := 0; cands.Len() > 0; pops++ {
		if pops == m.kept && !(len(best) == k && kth <= cut) {
			m.refilled = true
		}
		c := cands.Pop()
		if len(best) == k && (c.Dist > kth || (fcmp.ExactEq(c.Dist, kth) && c.ID > kthID)) {
			break
		}
		threshold := kth
		if len(best) < k {
			threshold = s.MaxDistance() * 2
		}
		d, less := s.DistIfLess(u, c.ID, threshold)
		if !less {
			if len(best) < k || c.ID > kthID {
				continue
			}
			if w, ok := s.Known(u, c.ID); ok {
				d = w
			} else {
				lb, _ := s.Bounds(u, c.ID)
				if lb > kth {
					continue
				}
				d = s.Dist(u, c.ID)
			}
			if !fcmp.ExactEq(d, kth) {
				continue
			}
		}
		best = append(best, Neighbor{ID: c.ID, Dist: d})
		SortNeighbors(best)
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			kth = best[k-1].Dist
			kthID = best[k-1].ID
		}
	}
	return best, m
}

// viewCall is one logged view call: its method, pair or pairs, and
// threshold (for BoundsBatch, the anchor in i and the batch length in j).
type viewCall struct {
	op         byte
	i, j, k, m int
	c          float64
}

// logView wraps a session, logs every call a row scan can make, and may
// answer bounds from overrides instead: fixed (lb, ub) for listed pairs,
// which need not be sound, and ub = lb for every pair when ubIsLB is set.
// It hides core.BatchBoundsView, so a row scan takes the per-pair path;
// logBatchView adds it back.
type logView struct {
	core.View
	calls  []viewCall
	over   map[[2]int][2]float64
	ubIsLB bool
}

func (l *logView) log(op byte, i, j int, c float64) {
	l.calls = append(l.calls, viewCall{op: op, i: i, j: j, c: c})
}

func (l *logView) override(i, j int, lb, ub float64) (float64, float64) {
	if b, ok := l.over[[2]int{min(i, j), max(i, j)}]; ok {
		lb, ub = b[0], b[1]
	}
	if l.ubIsLB {
		ub = lb
	}
	return lb, ub
}

func (l *logView) Known(i, j int) (float64, bool) {
	l.log('k', i, j, 0)
	return l.View.Known(i, j)
}

func (l *logView) Bounds(i, j int) (float64, float64) {
	l.log('b', i, j, 0)
	lb, ub := l.View.Bounds(i, j)
	return l.override(i, j, lb, ub)
}

func (l *logView) Dist(i, j int) float64 {
	l.log('d', i, j, 0)
	return l.View.Dist(i, j)
}

func (l *logView) Less(i, j, k, m int) bool {
	l.calls = append(l.calls, viewCall{op: '<', i: i, j: j, k: k, m: m})
	return l.View.Less(i, j, k, m)
}

func (l *logView) LessThan(i, j int, c float64) bool {
	l.log('t', i, j, c)
	return l.View.LessThan(i, j, c)
}

func (l *logView) DistIfLess(i, j int, c float64) (float64, bool) {
	l.log('i', i, j, c)
	return l.View.DistIfLess(i, j, c)
}

type logBatchView struct{ *logView }

func (l logBatchView) BoundsBatch(is, js []int, lb, ub []float64) {
	l.log('B', is[0], len(is), 0)
	l.View.(core.BatchBoundsView).BoundsBatch(is, js, lb, ub)
	for x := range is {
		lb[x], ub[x] = l.override(is[x], js[x], lb[x], ub[x])
	}
}

// knnRun is one build's outcome over a logging view of a fresh session.
type knnRun struct {
	rows   [][]Neighbor
	stats  core.Stats
	calls  []viewCall
	models []cutModel
}

// runBoth builds the kNN graph with the cut scan and with the reference
// over identical fresh sessions, each behind its own logging view.
func runBoth(fresh func() *core.Session, k int, batch bool, setup func(*logView)) (cut, ref knnRun) {
	for pass := 0; pass < 2; pass++ {
		lv := &logView{View: fresh()}
		if setup != nil {
			setup(lv)
		}
		var v core.View = lv
		if batch {
			v = logBatchView{lv}
		}
		var r knnRun
		if pass == 0 {
			r.rows = KNNGraph(v, k)
		} else {
			kk := min(k, v.N()-1)
			for u := 0; u < v.N(); u++ {
				if kk <= 0 {
					r.rows = append(r.rows, []Neighbor{})
					continue
				}
				row, m := refKNNRow(v, u, kk)
				r.rows, r.models = append(r.rows, row), append(r.models, m)
			}
		}
		r.stats, r.calls = lv.View.Stats(), lv.calls
		if pass == 0 {
			cut = r
		} else {
			ref = r
		}
	}
	return cut, ref
}

// sameRun reports how the cut scan's build differs from the reference's.
func sameRun(cut, ref knnRun) error {
	if fmt.Sprint(cut.rows) != fmt.Sprint(ref.rows) {
		return fmt.Errorf("rows differ")
	}
	if cut.stats != ref.stats {
		return fmt.Errorf("stats %+v, reference %+v", cut.stats, ref.stats)
	}
	if !slices.Equal(cut.calls, ref.calls) {
		x := 0
		for x < len(cut.calls) && x < len(ref.calls) && cut.calls[x] == ref.calls[x] {
			x++
		}
		return fmt.Errorf("%d view calls, reference %d; first difference at call %d", len(cut.calls), len(ref.calls), x)
	}
	return nil
}

// tieGrid is ROADMAP item 1's tie-heavy space: n integer points on a
// 50×50 grid under L1, scaled by 1/98, so many distances tie exactly and
// the float bounds built from them are not always sound.
func tieGrid(n int, seed int64) *metric.Vectors {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(rng.Intn(50)), float64(rng.Intn(50))}
	}
	return metric.NewVectors(pts, 1, 1.0/98)
}

// TestKNNRowCutMatchesFullHeap holds the cut scan to the full-heap
// reference on identical fresh sessions: the same rows, the same Stats and
// the same view calls (method, pair, threshold), on continuous data and on
// the tie-heavy grid, through the batch path, and through a view whose
// upper bounds equal its lower bounds, so T understates the k-th distance
// and rows refill. Each data set runs k ∈ {1, 10} at full size and
// k ∈ {1, 10, n−2, n−1} at n = 24, which also takes the per-pair path and
// where SPLUB, whose bound query is a shortest-path search, stays
// affordable under -race.
func TestKNNRowCutMatchesFullHeap(t *testing.T) {
	type cutCase struct {
		name    string
		sp      metric.Space
		schemes []core.Scheme
		lms     int
	}
	cases := []cutCase{
		{"urbangb", datasets.UrbanGBPlanar(200, 2), []core.Scheme{core.SchemeTri, core.SchemeLAESA}, 7},
		{"urbangb", datasets.UrbanGBPlanar(24, 2), []core.Scheme{core.SchemeTri, core.SchemeSPLUB, core.SchemeLAESA}, 3},
	}
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases,
			cutCase{fmt.Sprintf("grid-seed%d", seed), tieGrid(300, seed), []core.Scheme{core.SchemeTri}, 8},
			cutCase{fmt.Sprintf("grid-seed%d", seed), tieGrid(24, seed), []core.Scheme{core.SchemeTri, core.SchemeSPLUB}, 3})
	}
	modes := []struct {
		name   string
		batch  bool
		ubIsLB bool
	}{
		{"batch", true, false},
		{"per-pair", false, false},
		{"ub=lb", true, true},
	}
	for _, tc := range cases {
		n := tc.sp.Len()
		lms := core.PickLandmarks(n, tc.lms, 1)
		small := n <= 24
		ks := []int{1, 10}
		if small {
			ks = append(ks, n-2, n-1)
		}
		for _, scheme := range tc.schemes {
			fresh := func() *core.Session {
				s := core.NewSessionWithLandmarks(metric.NewOracle(tc.sp), scheme, lms)
				s.Bootstrap(lms)
				return s
			}
			for _, k := range ks {
				for _, mode := range modes {
					if !mode.batch && !small {
						continue
					}
					name := fmt.Sprintf("%s/n=%d/%s/k=%d/%s", tc.name, n, scheme, k, mode.name)
					t.Run(name, func(t *testing.T) {
						cut, ref := runBoth(fresh, k, mode.batch, func(lv *logView) { lv.ubIsLB = mode.ubIsLB })
						if err := sameRun(cut, ref); err != nil {
							t.Fatal(err)
						}
						heaped, refills := 0, 0
						for _, m := range ref.models {
							heaped += m.heapified(n - 1)
							if m.refilled {
								refills++
							}
						}
						t.Logf("heapified %.1f of %d candidates per row, %d of %d rows refilled",
							float64(heaped)/float64(n), n-1, refills, n)
						if mode.ubIsLB && k < n-1 && refills == 0 {
							t.Fatal("no row refilled with ub = lb; the case exercises nothing")
						}
					})
				}
			}
		}
	}
}

// TestAdmitKeepsSortedTopK holds admit to what it replaced: append, a
// sort in the canonical (distance, id) order, and a cut to k entries.
func TestAdmitKeepsSortedTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 5, 40} {
		var got, want []Neighbor
		for id := range rng.Perm(120) {
			e := Neighbor{ID: id, Dist: float64(rng.Intn(12)) / 4}
			got = admit(got, e, k)
			want = append(want, e)
			SortNeighbors(want)
			want = want[:min(len(want), k)]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("k=%d after id %d: %v, want %v", k, id, got, want)
			}
		}
	}
}

// FuzzKNNRowVsReference drives the cut scan and the full-heap reference
// over small planar spaces on a coarse grid, where ties are common, with
// fuzzed pre-resolved pairs, k and (lb, ub) overrides that need not be
// sound. Every input must give the reference's rows, Stats and call log.
// Overrides are never NaN: no oracle distance, and so no bound, is NaN.
func FuzzKNNRowVsReference(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(4), uint8(0), true, []byte{0, 1, 2, 3}, []byte{0, 1, 5, 2, 3, 4, 9, 9})
	f.Add(int64(2), uint8(47), uint8(46), uint8(2), uint8(1), false, []byte{}, []byte{1, 2, 255, 0})
	f.Add(int64(3), uint8(9), uint8(1), uint8(1), uint8(2), true, []byte{5, 6, 6, 7}, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, nb, kb, grid, schemeb uint8, batch bool, pre, over []byte) {
		n := 2 + int(nb)%47
		k := 1 + int(kb)%(n-1)
		side := 1 + int(grid)%8
		rng := rand.New(rand.NewSource(seed))
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{float64(rng.Intn(side + 1)), float64(rng.Intn(side + 1))}
		}
		scale := 1 / float64(2*side)
		sp := metric.NewVectors(pts, 1, scale)
		scheme := []core.Scheme{core.SchemeTri, core.SchemeSPLUB, core.SchemeLAESA}[int(schemeb)%3]
		lms := core.PickLandmarks(n, min(3, n), seed)
		overrides := make(map[[2]int][2]float64)
		for x := 0; x+3 < len(over) && x < 4*64; x += 4 {
			i, j := int(over[x])%n, int(over[x+1])%n
			if i == j {
				continue
			}
			bound := func(b byte) float64 {
				if b == 255 {
					return math.Inf(1)
				}
				return float64(int(b)%(4*side+1)) * scale
			}
			overrides[[2]int{min(i, j), max(i, j)}] = [2]float64{bound(over[x+2]), bound(over[x+3])}
		}
		fresh := func() *core.Session {
			s := core.NewSessionWithLandmarks(metric.NewOracle(sp), scheme, lms)
			for x := 0; x+1 < len(pre) && x < 2*64; x += 2 {
				if i, j := int(pre[x])%n, int(pre[x+1])%n; i != j {
					s.Dist(i, j)
				}
			}
			return s
		}
		cut, ref := runBoth(fresh, k, batch, func(lv *logView) { lv.over = overrides })
		if err := sameRun(cut, ref); err != nil {
			t.Fatalf("n=%d k=%d %s batch=%v: %v", n, k, scheme, batch, err)
		}
	})
}
