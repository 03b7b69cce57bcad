package prox

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

// batchHidden exposes only core.View, hiding the session's
// core.BatchBoundsView so the row scan takes its per-pair path.
type batchHidden struct{ core.View }

// prefetchSpy hides core.BatchBoundsView like batchHidden and records
// every PrefetchBounds hint, as a remote view would receive it.
type prefetchSpy struct {
	core.View
	hints [][]core.Pair
}

func (p *prefetchSpy) PrefetchBounds(pairs []core.Pair) {
	p.hints = append(p.hints, append([]core.Pair(nil), pairs...))
}

// TestKNNRowScanParity pins the batched row scan to the per-pair one. A
// raw Session (one BoundsBatch per row) and a view hiding
// core.BatchBoundsView (one Bounds call per pair) must return the same
// rows and end with the same Stats, on Tri's batch sweep, on
// SPLUB's per-pair fallback inside Session.BoundsBatch, and on Tri under
// an additive slack policy, whose widened intervals the batch path
// relaxes separately.
func TestKNNRowScanParity(t *testing.T) {
	const n, k = 80, 4
	space := datasets.UrbanGBPlanar(n, 4)
	lms := core.PickLandmarks(n, 6, 1)
	cases := []struct {
		name   string
		scheme core.Scheme
		opts   []core.Option
	}{
		{"tri", core.SchemeTri, nil},
		{"splub", core.SchemeSPLUB, nil},
		{"tri-slack", core.SchemeTri, []core.Option{core.WithSlack(core.SlackPolicy{Additive: 1e-3})}},
	}
	var triStats core.Stats // the slack case must differ from plain tri
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func() *core.Session {
				s := core.NewSessionWithLandmarks(metric.NewOracle(space), tc.scheme, lms, tc.opts...)
				s.Bootstrap(lms)
				return s
			}
			views := []struct {
				name string
				v    core.View
			}{
				{"session", fresh()},
				{"per-pair", batchHidden{fresh()}},
			}
			var want string
			var wantStats core.Stats
			for x, vw := range views {
				if _, ok := vw.v.(core.BatchBoundsView); ok == (vw.name == "per-pair") {
					t.Fatalf("%s: BatchBoundsView = %v", vw.name, ok)
				}
				// Half the rows one at a time, then the whole graph over
				// the knowledge they left behind.
				var got string
				for u := 0; u < n; u += 2 {
					got += fmt.Sprintln(KNNRow(vw.v, u, k))
				}
				got += fmt.Sprintln(KNNGraph(vw.v, k))
				st := vw.v.Stats()
				if st.BoundProbes == 0 || st.OracleCalls == 0 {
					t.Fatalf("%s: degenerate workload, stats %+v", vw.name, st)
				}
				if x == 0 {
					want, wantStats = got, st
					continue
				}
				if got != want {
					t.Errorf("%s: rows differ from the raw session's", vw.name)
				}
				if st != wantStats {
					t.Errorf("%s: stats %+v, raw session %+v", vw.name, st, wantStats)
				}
			}
			switch tc.name {
			case "tri":
				triStats = wantStats
			case "tri-slack":
				if wantStats == triStats {
					t.Fatalf("slack policy changed nothing: stats %+v", wantStats)
				}
			}
		})
	}
}

// TestKNNRowBoundsBatchMatchesScalar holds Tri's row path to the scalar
// bounds on the knn-inproc shape at test size: a planar UrbanGB session
// of 300 objects, bootstrapped on ⌊log₂ n⌋ = 8 landmark rows (complete
// rows, which the row sweep folds four at a time), runs KNNRow over a
// seeded permutation. Before each row, BoundsBatch over the row's
// canonical pairs must equal per-pair Bounds bit for bit (NaN and the
// sign of zero count) and advance BoundProbes by as much, while the rows
// resolved before it relocate rows of the store.
func TestKNNRowBoundsBatchMatchesScalar(t *testing.T) {
	const n, k = 300, 10
	lms := core.PickLandmarks(n, bits.Len(n)-1, 1)
	s := core.NewSessionWithLandmarks(metric.NewOracle(datasets.UrbanGBPlanar(n, 1)), core.SchemeTri, lms)
	s.Bootstrap(lms)
	is, js := make([]int, n-1), make([]int, n-1)
	lb, ub := make([]float64, n-1), make([]float64, n-1)
	start := s.Graph().Stats().Epoch
	for _, u := range rand.New(rand.NewSource(7)).Perm(n) {
		for x := range js {
			is[x], js[x] = u, x
			if x >= u {
				js[x]++
			}
		}
		p0 := s.Stats().BoundProbes
		s.BoundsBatch(is, js, lb, ub)
		p1 := s.Stats().BoundProbes
		for x, v := range js {
			wl, wu := s.Bounds(u, v)
			if math.Float64bits(lb[x]) != math.Float64bits(wl) || math.Float64bits(ub[x]) != math.Float64bits(wu) {
				t.Fatalf("row %d: batch (%d,%d) = [%v,%v], scalar [%v,%v]", u, u, v, lb[x], ub[x], wl, wu)
			}
		}
		if batch, scalar := p1-p0, s.Stats().BoundProbes-p1; batch != scalar {
			t.Fatalf("row %d: BoundsBatch probed %d pairs, per-pair Bounds %d", u, batch, scalar)
		}
		KNNRow(s, u, k)
	}
	if s.Graph().Stats().Epoch == start {
		t.Fatal("the rows relocated no row of the store; grow the workload")
	}
}

// TestKNNRowPrefetchesOncePerRow holds the remote path to one bounds hint
// per row: a view implementing core.BoundsPrefetcher but not
// core.BatchBoundsView receives exactly one PrefetchBounds per row,
// carrying (u, v) for every v ≠ u.
func TestKNNRowPrefetchesOncePerRow(t *testing.T) {
	const n, k = 30, 3
	space := datasets.UrbanGBPlanar(n, 2)
	spy := &prefetchSpy{View: core.NewSession(metric.NewOracle(space), core.SchemeTri)}
	rowPairs := func(u int) []core.Pair {
		var ps []core.Pair
		for v := 0; v < n; v++ {
			if v != u {
				ps = append(ps, core.Pair{A: u, B: v})
			}
		}
		return ps
	}
	check := func(rows []int) {
		t.Helper()
		if len(spy.hints) != len(rows) {
			t.Fatalf("%d PrefetchBounds calls for %d rows", len(spy.hints), len(rows))
		}
		for x, u := range rows {
			if got, want := fmt.Sprint(spy.hints[x]), fmt.Sprint(rowPairs(u)); got != want {
				t.Fatalf("row %d hint %s, want %s", u, got, want)
			}
		}
		spy.hints = nil
	}
	KNNRow(spy, 7, k)
	check([]int{7})
	KNNGraph(spy, k)
	all := make([]int, n)
	for u := range all {
		all[u] = u
	}
	check(all)
}

// TestMinHeapPopsSortedOrder holds the heap to the order the row scan
// used to get from a full sort: after an O(n) init, and with pushes
// between pops, entries leave in exactly fcmp.TieLess order — distance
// ties (common among lower bounds, which are often 0) broken by id.
func TestMinHeapPopsSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := make([]Neighbor, 500)
	for x := range items {
		items[x] = Neighbor{ID: x, Dist: float64(rng.Intn(40)) / 8}
	}
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	want := append([]Neighbor(nil), items...)
	extra := []Neighbor{{ID: 900, Dist: 0}, {ID: 901, Dist: 2.5}, {ID: 902, Dist: 99}}
	want = append(want, extra...)
	SortNeighbors(want)

	var h MinHeap
	h.init(items)
	var got []Neighbor
	for x := 0; h.Len() > 0; x++ {
		if x == 3 {
			for _, e := range extra {
				h.Push(e)
			}
		}
		got = append(got, h.Pop())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order differs from the sorted order:\n got %v\nwant %v", got, want)
	}
}
