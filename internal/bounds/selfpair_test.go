package bounds

import (
	"math"
	"math/rand"
	"testing"
	"time"

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
	for _, e := range figure1Edges {
		adm.Update(e.U, e.V, e.W)
		laesa.Update(e.U, e.V, e.W)
		tlaesa.Update(e.U, e.V, e.W)
		dft.Update(e.U, e.V, e.W)
	}
	tri := NewTri(g, 1)
	splub := NewSPLUB(g, 1)
	hybridCheap := &countingBounder{Bounder: NewTri(g, 1)}
	hybridTight := &countingBounder{Bounder: NewSPLUB(g, 1)}
	hybrid := NewHybrid(hybridCheap, hybridTight, 0) // gap 0: escalates every non-self query

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

	// The hybrid guard must short-circuit before either input: a
	// self-pair is not a query the cheap/tight trade-off ever sees.
	if hybridCheap.queries != 0 || hybridTight.queries != 0 {
		t.Errorf("hybrid asked cheap %d and tight %d times for self-pairs, want 0/0",
			hybridCheap.queries, hybridTight.queries)
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
	var resolved [][2]int
	for g.M() < 400 {
		i, j := rng.Intn(n-1), rng.Intn(n-1) // node n-1 stays isolated
		if i != j && !g.Known(i, j) {
			g.AddEdge(i, j, m.Distance(i, j))
			resolved = append(resolved, [2]int{i, j})
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
	for _, p := range resolved[:20] { // resolved pairs
		is, js = append(is, p[0]), append(js, p[1])
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
// Bounds call (compared as bits, so NaN and the sign of zero count), and
// the returned count equal to the number of pairs that are neither
// self-pairs nor resolved in g.
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
		if math.Float64bits(lb[q]) != math.Float64bits(wl) || math.Float64bits(ub[q]) != math.Float64bits(wu) {
			t.Fatalf("batch[%d] (%d,%d) = [%v,%v], scalar [%v,%v]",
				q, is[q], js[q], lb[q], ub[q], wl, wu)
		}
	}
	if derived != want {
		t.Fatalf("BoundsBatch derived %d pairs, want %d (neither self nor resolved)", derived, want)
	}
}

// canonicalRow returns the canonical row of anchor a over n objects: the
// pair (a, v) for every v ≠ a, in increasing v, the shape of a kNN row.
func canonicalRow(n, a int) (is, js []int) {
	for v := 0; v < n; v++ {
		if v != a {
			is, js = append(is, a), append(js, v)
		}
	}
	return is, js
}

// rowSweeps reports whether BoundsBatch answers the pairs, which must
// open with a canonical row of u, by the row path's sweep: isRow accepts
// them, and u's neighbour rows hold fewer cells than the rows of the
// row's derived pairs.
func rowSweeps(tri *Tri, g *pgraph.Graph, u int, is, js []int) bool {
	if !tri.isRow(u, is, js) {
		return false
	}
	sweep, probe := 0, 0
	for v := 0; v < g.N(); v++ {
		switch {
		case v == u:
		case g.Known(u, v):
			sweep += g.Degree(v)
		default:
			probe += g.Degree(v)
		}
	}
	return sweep < probe
}

// TestTriBoundsBatchShapes holds BoundsBatch to the scalar answers on the
// batch shapes it treats specially: a full row against one anchor,
// answered by the neighbour-major sweep at ρ = 1 and ρ = 1.5, both as a
// canonical row (the row path) and with the self-pair inside the run
// (the general run's sweep); a 2-pair run, which must keep the probe; a
// swept row whose triangles carry NaN and signed-zero weights; complete
// landmark rows, which the sweep folds four at a time, with NaN, ±Inf
// and −0 among their weights; a landmark anchor whose row is complete
// but for the isolated node (every pair resolved, detected by stamp
// alone) next to an isolated anchor (no stamps at all); and an anchor
// that returns after another anchor's row was stamped — b's stamps must
// not read as a's neighbours.
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
		// The relaxed case runs the sweep's ρ-relaxed folds; random-pair
		// batches, about one pair per anchor, never reach them. With the
		// self-pair inside, the run is not canonical and takes the
		// general run's sweep.
		for _, rho := range []float64{1, 1.5} {
			swept := NewTriRelaxed(g, 1, rho)
			is, js := row(5)
			checkTriBatch(t, swept, g, is, js)
			if swept.lo == nil {
				t.Fatalf("ρ = %v: a full row did not take the neighbour-major sweep", rho)
			}
			rowed := NewTriRelaxed(g, 1, rho)
			is, js = canonicalRow(n, 5)
			checkTriBatch(t, rowed, g, is, js)
			if !rowSweeps(rowed, g, 5, is, js) || rowed.lo != nil {
				t.Fatalf("ρ = %v: a canonical row did not take the row path's sweep", rho)
			}
		}
	})
	t.Run("short-run-probes", func(t *testing.T) {
		// Two pairs visit far fewer cells by probe than by sweeping the
		// anchor's neighbour rows, the landmark's full row among them.
		probed := NewTri(g, 1)
		checkTriBatch(t, probed, g, []int{5, 5}, []int{6, 7})
		if probed.lo != nil {
			t.Fatal("a 2-pair run took the neighbour-major sweep")
		}
	})
	t.Run("nan-and-signed-zero", func(t *testing.T) {
		// (0, 3) meets +0 + +0 through 1 before −0 + −0 through 2: the
		// probe keeps the first zero upper bound where min picks −0.
		// (0, 4) meets a NaN weight through 1, which the probe skips and
		// min/max would carry. The clique on 3..7 makes probing the row
		// dearer than sweeping it.
		zg := pgraph.New(8)
		negZero := math.Copysign(0, -1)
		zg.AddEdge(0, 1, 0)
		zg.AddEdge(0, 2, negZero)
		zg.AddEdge(1, 3, 0)
		zg.AddEdge(2, 3, negZero)
		zg.AddEdge(1, 4, math.NaN())
		zg.AddEdge(2, 4, 0.25)
		for i := 3; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				zg.AddEdge(i, j, 0.5)
			}
		}
		// The pairs after the leading self-pair are a canonical row of
		// 0, which takes the row path; the same row in reverse is a
		// general run, which takes the run's sweep.
		var is, js, ris, rjs []int
		for v := 0; v < 8; v++ {
			is, js = append(is, 0), append(js, v)
			ris, rjs = append(ris, 0), append(rjs, 7-v)
		}
		for _, rho := range []float64{1, 1.5} {
			rowed := NewTriRelaxed(zg, 1, rho)
			checkTriBatch(t, rowed, zg, is, js)
			if !rowSweeps(rowed, zg, 0, is[1:], js[1:]) || rowed.lo != nil {
				t.Fatalf("ρ = %v: the row did not take the row path's sweep", rho)
			}
			swept := NewTriRelaxed(zg, 1, rho)
			checkTriBatch(t, swept, zg, ris, rjs)
			if swept.lo == nil {
				t.Fatalf("ρ = %v: the reversed row did not take the neighbour-major sweep", rho)
			}
		}
	})
	t.Run("complete-rows", func(t *testing.T) {
		// Nine complete landmark rows fold as two blocks of four and one
		// padded block; a tenth landmark's row misses one object and
		// stays sparse. Some of their weights are NaN, ±Inf or ±0, in
		// every block and the sparse row, so the integer folds meet the
		// cases settle hands back to probe.
		const cn, lms = 96, 10
		cm := datasets.SFPOI(cn, 6)
		cg := pgraph.New(cn)
		specials := []struct {
			l, v int
			w    float64
		}{
			{1, 20, math.NaN()}, {2, 21, math.Inf(1)}, {3, 22, math.Inf(-1)},
			{5, 23, math.Copysign(0, -1)}, {6, 24, 0}, {8, 30, math.NaN()},
			{9, 31, math.Inf(-1)},
		}
		for _, sp := range specials {
			cg.AddEdge(sp.l, sp.v, sp.w)
		}
		for l := 0; l < lms; l++ {
			for v := 0; v < cn-l/(lms-1); v++ {
				if v != l && !cg.Known(l, v) {
					cg.AddEdge(l, v, cm.Distance(l, v))
				}
			}
		}
		for cg.M() < 1250 {
			i, j := lms+rng.Intn(cn-lms), lms+rng.Intn(cn-lms)
			if i != j && !cg.Known(i, j) {
				cg.AddEdge(i, j, cm.Distance(i, j))
			}
		}
		for _, rho := range []float64{1, 1.5} {
			for _, a := range []int{20, 23, 24, 30, 31, 40, cn - 1, 0, lms - 1} {
				rowed := NewTriRelaxed(cg, 1, rho)
				is, js := canonicalRow(cn, a)
				checkTriBatch(t, rowed, cg, is, js)
				if a >= lms && (!rowSweeps(rowed, cg, a, is, js) || rowed.lo != nil) {
					t.Fatalf("ρ = %v: the canonical row of %d did not take the row path's sweep", rho, a)
				}
				swept := NewTriRelaxed(cg, 1, rho)
				is, js = nil, nil
				for v := cn - 1; v >= 0; v-- { // a general run
					is, js = append(is, a), append(js, v)
				}
				checkTriBatch(t, swept, cg, is, js)
				if a >= lms && swept.lo == nil {
					t.Fatalf("ρ = %v: the reversed row of %d did not take the neighbour-major sweep", rho, a)
				}
			}
		}
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

// TestTriBatchOutOfRangePanics holds BoundsBatch to a panic on a pair
// naming no object in a graph of one object, where a canonical row would
// hold no pair at all: the batch must not take that empty row for the
// pair and spin without consuming it.
func TestTriBatchOutOfRangePanics(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		lb, ub := make([]float64, 1), make([]float64, 1)
		NewTri(pgraph.New(1), 1).BoundsBatch([]int{0}, []int{1}, lb, ub)
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("BoundsBatch answered the pair (0, 1) in a graph of one object")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("BoundsBatch did not return on the pair (0, 1) in a graph of one object")
	}
}

// TestTriBatchInterleavedWithUpdates checks that batch answers stay
// correct across graph growth — row relocations between batches must
// not leave the bounder reading stale views, neither on random pairs nor
// on a full row against one anchor, general or canonical.
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
		for k := 0; k < 60; k++ { // grow: forces relocations
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j && !g.Known(i, j) {
				tri.Update(i, j, m.Distance(i, j))
			}
		}
		// A row-shaped batch takes the neighbour-major sweep over rows
		// the growth above just relocated.
		var ri, rj []int
		for a, v := rng.Intn(n), 0; v < n; v++ {
			ri, rj = append(ri, a), append(rj, v)
		}
		checkTriBatch(t, tri, g, ri, rj)
		// A canonical row takes the row path over the same store.
		ci, cj := canonicalRow(n, rng.Intn(n))
		checkTriBatch(t, tri, g, ci, cj)
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
	if tri.lo == nil {
		t.Fatal("no row batch took the neighbour-major sweep; thin the graph")
	}
}

// FuzzTriBatchVsScalar holds BoundsBatch to checkTriBatch's contract on
// small graphs built from the input: one to nine landmark rows plus random
// edges, with weights that include +0, −0, ±Inf and NaN (pgraph.AddEdge
// accepts them all), and ρ ∈ {1, 1.5, 2}. Half the inputs leave node n−1
// isolated, and the other half reach it from every landmark, whose rows
// are then complete and fold four at a time. Every batch mixes long
// one-anchor runs (the sweep's shape), canonical rows (the row path's,
// with the self-pair before, after or outside the batch), 1–2-pair runs
// (the probe's), self-pairs, duplicates, resolved pairs, an isolated or
// barely connected anchor and an anchor that returns after another
// anchor's sweep, and runs twice, so the second pass meets the first
// pass's stale accumulators.
func FuzzTriBatchVsScalar(f *testing.F) {
	f.Add(uint8(12), uint8(0), []byte("\x35\x81\x10\x42\x07\xf3\x20\x66\x91\x13\x54\x38\xc2\x0e\x71"))
	f.Add(uint8(20), uint8(4), []byte("\xa0\x01\x02\x10\xb7\x44\x5c\x23\x99\x30\x61\xe5\x0d\x7a\x12\x48\x3f\x86"))
	f.Add(uint8(9), uint8(8), []byte("\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff"))
	f.Add(uint8(31), uint8(5), []byte{})
	f.Add(uint8(17), uint8(51), []byte("\x03\x52\x61\x10\x00\x91\x43\x22\xe4\x37\x0b\x85\x10\x6c\x2f\x01\x93\x58"))
	f.Add(uint8(26), uint8(52), []byte("\x71\x02\xc3\x44\x13\x90\x25\x6e\x01\xb8\x30\x47\x5a\x0c\xd9\x16"))
	f.Fuzz(func(t *testing.T, size, mode uint8, data []byte) {
		in := fuzzInput{data: data}
		n := 5 + int(size%28)
		rho := [3]float64{1, 1.5, 2}[mode%3]
		landmarks := 1 + int(mode/3%9)
		isolated := n - 1 // no edge touches it unless the landmark rows are complete
		reach := isolated
		if mode/27%2 == 1 {
			reach = n
		}
		g := pgraph.New(n)
		var resolved [][2]int // insertion order, smaller id first
		add := func(i, j int) {
			g.AddEdge(i, j, fuzzWeight(in.next()))
			resolved = append(resolved, [2]int{min(i, j), max(i, j)})
		}
		for l := 0; l < landmarks && l < isolated; l++ {
			for v := 0; v < reach; v++ {
				if v != l && !g.Known(l, v) {
					add(l, v)
				}
			}
		}
		for e := in.intn(2 * n); e > 0; e-- {
			i, j := in.intn(isolated), in.intn(isolated)
			if i != j && !g.Known(i, j) {
				add(i, j)
			}
		}
		tri := NewTriRelaxed(g, 1, rho)

		var is, js []int
		row := func(a int) {
			for v := 0; v < n; v++ {
				is, js = append(is, a), append(js, v)
			}
		}
		canonical := func(a int) {
			self := in.intn(3) // the self-pair before, after or not at all
			if self == 0 {
				is, js = append(is, a), append(js, a)
			}
			ci, cj := canonicalRow(n, a)
			is, js = append(is, ci...), append(js, cj...)
			if self == 1 {
				is, js = append(is, a), append(js, a)
			}
		}
		shapes := []func(){
			func() { row(in.intn(n)) },
			func() { canonical(in.intn(n)) },
			func() {
				a := in.intn(n)
				for k := 1 + in.intn(2); k > 0; k-- {
					is, js = append(is, a), append(js, in.intn(n))
				}
			},
			func() { x := in.intn(n); is, js = append(is, x), append(js, x) },
			func() {
				if len(is) > 0 {
					q := in.intn(len(is))
					is, js = append(is, is[q]), append(js, js[q])
				}
			},
			func() {
				p := resolved[in.intn(len(resolved))] // the landmark rows make it non-empty
				is, js = append(is, p[1]), append(js, p[0])
			},
			func() { row(isolated) },
			func() {
				a, b := in.intn(n), in.intn(n)
				row(a)
				canonical(b)
				row(a)
			},
			func() {
				a, b := in.intn(n), in.intn(n)
				canonical(a)
				row(b)
				canonical(a)
			},
		}
		first := in.intn(len(shapes))
		for k := range shapes {
			shapes[(first+k)%len(shapes)]()
		}
		for extra := in.intn(8); extra > 0; extra-- {
			shapes[in.intn(len(shapes))]()
		}
		for pass := 0; pass < 2; pass++ {
			checkTriBatch(t, tri, g, is, js)
		}
	})
}

// fuzzInput hands out the fuzz input's bytes in order, then zeros.
type fuzzInput struct {
	data []byte
	at   int
}

func (in *fuzzInput) next() byte {
	if in.at >= len(in.data) {
		return 0
	}
	in.at++
	return in.data[in.at-1]
}

func (in *fuzzInput) intn(n int) int { return int(in.next()) % n }

// fuzzWeight maps a byte to an edge weight: NaN, +Inf, −Inf or −0 for
// four of every sixteen bytes, otherwise one of sixteen values in
// [0, 1), so equal candidates are common.
func fuzzWeight(b byte) float64 {
	switch b & 15 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.Inf(-1)
	}
	return float64(b>>4) / 16
}
