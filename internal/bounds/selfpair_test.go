package bounds

import (
	"math/rand"
	"testing"

	"metricprox/internal/datasets"
	"metricprox/internal/pgraph"
)

// TestSelfPairBoundsAllSchemes is the satellite regression table: every
// scheme must answer Bounds(i, i) = (0, 0) exactly — a self-distance is
// identically 0 in any metric — instead of leaking a loose interval (the
// pre-fix behaviour: tri returned (0, maxDist) for an isolated node,
// laesa a 2·d(l,i) upper bound, dft had no LP variable for (i,i), and
// hybrid burnt an escalation on a question with a fixed answer).
func TestSelfPairBoundsAllSchemes(t *testing.T) {
	g := figure1()
	landmarks := []int{1, 2}

	adm := NewADM(7, 1)
	laesa := NewLAESA(7, landmarks, 1)
	tlaesa := NewTLAESA(7, landmarks, 1)
	dft := NewDFT(7, 1)
	for _, e := range g.Edges() {
		adm.Update(e.U, e.V, e.W)
		laesa.Update(e.U, e.V, e.W)
		tlaesa.Update(e.U, e.V, e.W)
		dft.Update(e.U, e.V, e.W)
	}
	tri := NewTri(g, 1)
	splub := NewSPLUB(g, 1)
	hybrid := NewHybrid(NewTri(g, 1), NewSPLUB(g, 1), 0) // gap 0: escalates every non-self query

	table := []struct {
		name string
		b    Bounder
	}{
		{"tri", tri},
		{"splub", splub},
		{"adm", adm},
		{"laesa", laesa},
		{"tlaesa", tlaesa},
		{"dft", dft},
		{"hybrid", hybrid},
	}
	for _, tc := range table {
		for i := 0; i < 7; i++ {
			lb, ub := tc.b.Bounds(i, i)
			if lb != 0 || ub != 0 {
				t.Errorf("%s: Bounds(%d,%d) = [%v,%v], want [0,0]", tc.name, i, i, lb, ub)
			}
		}
	}

	// The hybrid guard must short-circuit *before* the query counter: a
	// self-pair is not a query the cheap/tight trade-off ever sees.
	if q, esc := hybrid.Escalations(); q != 0 || esc != 0 {
		t.Errorf("hybrid counted %d queries/%d escalations for self-pairs, want 0/0", q, esc)
	}
	// SPLUB's early-exit upper-bound path needs the same guard.
	if ub := splub.TightestUB(3, 3); ub != 0 {
		t.Errorf("splub.TightestUB(3,3) = %v, want 0", ub)
	}
}

// TestTriBoundsBatchMatchesScalar pins the BatchBounder contract:
// BoundsBatch must write bit-identical intervals to per-pair Bounds calls,
// on a query mix that includes self-pairs, resolved pairs, duplicate
// pairs, and pairs with empty or disjoint adjacency rows.
func TestTriBoundsBatchMatchesScalar(t *testing.T) {
	const n = 64
	m := datasets.SFPOI(n, 1)
	g := pgraph.New(n)
	rng := rand.New(rand.NewSource(7))
	for g.M() < 400 {
		i, j := rng.Intn(n-1), rng.Intn(n-1) // node n-1 stays isolated
		if i != j && !g.Known(i, j) {
			g.AddEdge(i, j, m.Distance(i, j))
		}
	}
	tri := NewTriRelaxed(g, 1, 1.5) // exercise the ρ-relaxed arithmetic too

	var is, js []int
	for q := 0; q < 500; q++ {
		is = append(is, rng.Intn(n))
		js = append(js, rng.Intn(n))
	}
	for q := 0; q < 20; q++ { // self-pairs
		x := rng.Intn(n)
		is, js = append(is, x), append(js, x)
	}
	for _, e := range g.Edges()[:20] { // resolved pairs
		is, js = append(is, e.U), append(js, e.V)
	}
	is, js = append(is, is[0]), append(js, js[0]) // duplicate query
	is, js = append(is, n-1), append(js, 0)       // isolated anchor row

	for trial := 0; trial < 2; trial++ { // second pass reuses warm scratch
		checkTriBatch(t, tri, g, is, js)
	}

	lb := make([]float64, len(is))
	ub := make([]float64, len(is))
	defer func() {
		if recover() == nil {
			t.Fatal("BoundsBatch with mismatched slice lengths did not panic")
		}
	}()
	tri.BoundsBatch(is, js[:1], lb, ub)
}

// checkTriBatch runs one BoundsBatch over the pairs and holds it to the
// BatchBounder contract: every interval bit-identical to the scalar
// Bounds call, and the returned count equal to the number of pairs that
// are neither self-pairs nor resolved in g.
func checkTriBatch(t *testing.T, tri *Tri, g *pgraph.Graph, is, js []int) {
	t.Helper()
	lb := make([]float64, len(is))
	ub := make([]float64, len(is))
	derived := tri.BoundsBatch(is, js, lb, ub)
	want := 0
	for q := range is {
		if is[q] != js[q] && !g.Known(is[q], js[q]) {
			want++
		}
		wl, wu := tri.Bounds(is[q], js[q])
		if lb[q] != wl || ub[q] != wu {
			t.Fatalf("batch[%d] (%d,%d) = [%v,%v], scalar [%v,%v]",
				q, is[q], js[q], lb[q], ub[q], wl, wu)
		}
	}
	if derived != want {
		t.Fatalf("BoundsBatch derived %d pairs, want %d (neither self nor resolved)", derived, want)
	}
}

// TestTriBoundsBatchShapes holds BoundsBatch to the scalar answers on the
// batch shapes its input-order sweep treats specially: a full row against
// one anchor, a landmark anchor whose row is complete (every pair
// resolved, detected by stamp alone) next to an isolated anchor (no
// stamps at all), and an anchor that returns after another anchor's row
// was stamped — b's stamps must not read as a's neighbours.
func TestTriBoundsBatchShapes(t *testing.T) {
	const n = 40
	m := datasets.SFPOI(n, 5)
	g := pgraph.New(n)
	const landmark, isolated = 0, n - 1
	for v := 1; v < isolated; v++ { // the landmark's row: all but isolated
		g.AddEdge(landmark, v, m.Distance(landmark, v))
	}
	rng := rand.New(rand.NewSource(11))
	for g.M() < 200 {
		i, j := 1+rng.Intn(n-2), 1+rng.Intn(n-2)
		if i != j && !g.Known(i, j) {
			g.AddEdge(i, j, m.Distance(i, j))
		}
	}
	tri := NewTri(g, 1)

	row := func(a int) (is, js []int) {
		for v := 0; v < n; v++ {
			is, js = append(is, a), append(js, v) // includes the self-pair
		}
		return is, js
	}
	concat := func(parts ...[]int) []int {
		var out []int
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}

	t.Run("one-anchor-row", func(t *testing.T) {
		is, js := row(5)
		checkTriBatch(t, tri, g, is, js)
	})
	t.Run("landmark-and-isolated", func(t *testing.T) {
		li, lj := row(landmark)
		ii, ij := row(isolated)
		checkTriBatch(t, tri, g, concat(li, ii), concat(lj, ij))
	})
	t.Run("anchor-returns", func(t *testing.T) {
		// a and b share few neighbours, so b's stamps cover objects that
		// are not a's neighbours; the second run of a asks exactly those.
		a, b := 3, 4
		var bOnly []int
		nb, _ := g.Row(b)
		for _, v := range nb {
			if int(v) != a && !g.Known(a, int(v)) {
				bOnly = append(bOnly, int(v))
			}
		}
		if len(bOnly) == 0 {
			t.Fatal("workload gives b no neighbour outside a's row; reseed it")
		}
		ai, aj := row(a)
		bi, bj := row(b)
		ret := make([]int, len(bOnly))
		for x := range ret {
			ret[x] = a
		}
		checkTriBatch(t, tri, g, concat(ai, bi, ret), concat(aj, bj, bOnly))
	})
}

// TestTriBatchInterleavedWithUpdates checks that batch answers stay
// correct across graph growth — row relocations and compactions between
// batches must not leave the bounder reading stale views.
func TestTriBatchInterleavedWithUpdates(t *testing.T) {
	const n = 48
	m := datasets.SFPOI(n, 2)
	g := pgraph.New(n)
	tri := NewTri(g, 1)
	rng := rand.New(rand.NewSource(9))

	is := make([]int, 128)
	js := make([]int, 128)
	lb := make([]float64, 128)
	ub := make([]float64, 128)
	for round := 0; round < 12; round++ {
		for k := 0; k < 60; k++ { // grow: forces relocations/compaction
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j && !g.Known(i, j) {
				tri.Update(i, j, m.Distance(i, j))
			}
		}
		for q := range is {
			is[q], js[q] = rng.Intn(n), rng.Intn(n)
		}
		tri.BoundsBatch(is, js, lb, ub)
		for q := range is {
			wl, wu := tri.Bounds(is[q], js[q])
			if lb[q] != wl || ub[q] != wu {
				t.Fatalf("round %d: batch[%d] = [%v,%v], scalar [%v,%v]",
					round, q, lb[q], ub[q], wl, wu)
			}
			if d := m.Distance(is[q], js[q]); lb[q]-1e-9 > d || d > ub[q]+1e-9 {
				t.Fatalf("round %d: unsound batch interval [%v,%v] for true %v",
					round, lb[q], ub[q], d)
			}
		}
	}
	if st := g.Stats(); st.Epoch == 0 {
		t.Fatalf("workload never relocated a row (epoch 0, stats %+v); grow it", st)
	}
}
