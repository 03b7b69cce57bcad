package bounds

import (
	"math"
	"math/rand"
	"testing"

	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/pgraph"
)

// figure1Edges is the paper's running example (the 7-object partial graph
// of Figure 1) with this repository's weights.
var figure1Edges = []pgraph.Edge{
	{U: 1, V: 3, W: 0.8},
	{U: 3, V: 4, W: 0.1},
	{U: 2, V: 3, W: 0.3},
	{U: 2, V: 4, W: 0.4},
	{U: 1, V: 5, W: 0.2},
	{U: 2, V: 5, W: 0.9},
	{U: 0, V: 6, W: 0.5},
	{U: 0, V: 1, W: 0.7},
}

// figure1 rebuilds the partial graph of figure1Edges.
func figure1() *pgraph.Graph {
	g := pgraph.New(7)
	for _, e := range figure1Edges {
		g.AddEdge(e.U, e.V, e.W)
	}
	return g
}

func TestSPLUBPaperExample(t *testing.T) {
	// Section 3.1: with d(1,3)=0.8 and d(3,4)=0.1 the tightest bounds for
	// d(1,4) are [0.7, 0.9].
	g := figure1()
	s := NewSPLUB(g, 1)
	lb, ub := s.Bounds(1, 4)
	if math.Abs(lb-0.7) > 1e-12 || math.Abs(ub-0.9) > 1e-12 {
		t.Fatalf("Bounds(1,4) = [%v,%v], want [0.7,0.9]", lb, ub)
	}
}

func TestTriPaperExample(t *testing.T) {
	g := figure1()
	tri := NewTri(g, 1)
	// (3,5): common neighbours 1 and 2.
	// Via 1: |0.8−0.2| = 0.6, 0.8+0.2 = 1.0. Via 2: |0.3−0.9| = 0.6, 1.2.
	lb, ub := tri.Bounds(3, 5)
	if math.Abs(lb-0.6) > 1e-12 || math.Abs(ub-1.0) > 1e-12 {
		t.Fatalf("Bounds(3,5) = [%v,%v], want [0.6,1.0]", lb, ub)
	}
	// (1,4): common neighbour 3 only: [0.7, 0.9].
	lb, ub = tri.Bounds(1, 4)
	if math.Abs(lb-0.7) > 1e-12 || math.Abs(ub-0.9) > 1e-12 {
		t.Fatalf("Bounds(1,4) = [%v,%v], want [0.7,0.9]", lb, ub)
	}
	// (0,3): common neighbour 1: [|0.7−0.8|, min(1, 0.7+0.8)] = [0.1, 1].
	lb, ub = tri.Bounds(0, 3)
	if math.Abs(lb-0.1) > 1e-12 || ub != 1 {
		t.Fatalf("Bounds(0,3) = [%v,%v], want [0.1,1]", lb, ub)
	}
	// A pair with no common neighbour gets the trivial interval.
	lb, ub = tri.Bounds(0, 4)
	if lb != 0 || ub != 1 {
		t.Fatalf("Bounds(0,4) = [%v,%v], want [0,1]", lb, ub)
	}
}

// TestKnownEdgeIsExactEverywhere asks every known edge in both argument
// orders. Figure 1's rows differ in length, so Tri answers from the
// stamp of the shorter row whichever argument owns it, under the ρ = 1
// and the relaxed arithmetic.
func TestKnownEdgeIsExactEverywhere(t *testing.T) {
	g := figure1()
	adm := NewADM(7, 1)
	for _, e := range figure1Edges {
		adm.Update(e.U, e.V, e.W)
	}
	for _, b := range []Bounder{NewSPLUB(g, 1), NewTri(g, 1), NewTriRelaxed(g, 1, 2), adm} {
		for _, e := range figure1Edges {
			for _, p := range [][2]int{{e.U, e.V}, {e.V, e.U}} {
				lb, ub := b.Bounds(p[0], p[1])
				if math.Float64bits(lb) != math.Float64bits(e.W) || math.Float64bits(ub) != math.Float64bits(e.W) {
					t.Fatalf("%s: known edge (%d,%d) bounds [%v,%v], want [%v,%v]", b.Name(), p[0], p[1], lb, ub, e.W, e.W)
				}
			}
		}
	}
}

// buildAll constructs one of every bounder over n objects, fed by the same
// update stream.
func buildAll(n int, landmarks []int) (map[string]Bounder, func(i, j int, d float64)) {
	g := pgraph.New(n)
	bs := map[string]Bounder{
		"noop":   NewNoop(1),
		"splub":  NewSPLUB(g, 1),
		"tri":    NewTri(g, 1),
		"adm":    NewADM(n, 1),
		"laesa":  NewLAESA(n, landmarks, 1),
		"tlaesa": NewTLAESA(n, landmarks, 1),
	}
	update := func(i, j int, d float64) {
		g.AddEdge(i, j, d) // shared by splub and tri
		bs["adm"].Update(i, j, d)
		bs["laesa"].Update(i, j, d)
		bs["tlaesa"].Update(i, j, d)
	}
	return bs, update
}

func TestSoundnessAllBounders(t *testing.T) {
	// Property: at every prefix of a random reveal order, every bounder
	// brackets the true distance of every pair.
	for trial := 0; trial < 8; trial++ {
		seed := int64(100 + trial)
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(10)
		m := datasets.RandomMetric(n, seed)
		landmarks := rng.Perm(n)[:3]
		bs, update := buildAll(n, landmarks)

		var pairs [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })

		for step, p := range pairs {
			update(p[0], p[1], m.Distance(p[0], p[1]))
			if step%7 != 0 {
				continue // check every few steps to keep runtime sane
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					d := m.Distance(i, j)
					for name, b := range bs {
						lb, ub := b.Bounds(i, j)
						if lb > d+1e-9 || ub < d-1e-9 {
							t.Fatalf("seed %d step %d: %s bounds [%v,%v] exclude true %v for (%d,%d)",
								seed, step, name, lb, ub, d, i, j)
						}
					}
				}
			}
		}
	}
}

func TestSPLUBEqualsADM(t *testing.T) {
	// The paper's claim (Summary of Results, point 2): SPLUB produces
	// exactly the bounds of ADM.
	for trial := 0; trial < 6; trial++ {
		seed := int64(500 + trial)
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		m := datasets.RandomMetric(n, seed)
		g := pgraph.New(n)
		splub := NewSPLUB(g, 1)
		adm := NewADM(n, 1)
		for e := 0; e < 2*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j || g.Known(i, j) {
				continue
			}
			d := m.Distance(i, j)
			g.AddEdge(i, j, d)
			adm.Update(i, j, d)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				slb, sub := splub.Bounds(i, j)
				alb, aub := adm.Bounds(i, j)
				if math.Abs(slb-alb) > 1e-9 || math.Abs(sub-aub) > 1e-9 {
					t.Fatalf("seed %d (%d,%d): splub [%v,%v] != adm [%v,%v]",
						seed, i, j, slb, sub, alb, aub)
				}
			}
		}
	}
}

func TestTriNoTighterThanSPLUB(t *testing.T) {
	// Tri restricts Equation 4 to paths of length 2, so its interval must
	// contain SPLUB's.
	for trial := 0; trial < 6; trial++ {
		seed := int64(900 + trial)
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		m := datasets.RandomMetric(n, seed)
		g := pgraph.New(n)
		splub, tri := NewSPLUB(g, 1), NewTri(g, 1)
		for e := 0; e < 3*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j || g.Known(i, j) {
				continue
			}
			g.AddEdge(i, j, m.Distance(i, j))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				slb, sub := splub.Bounds(i, j)
				tlb, tub := tri.Bounds(i, j)
				if tlb > slb+1e-9 || tub < sub-1e-9 {
					t.Fatalf("seed %d (%d,%d): tri [%v,%v] tighter than splub [%v,%v]",
						seed, i, j, tlb, tub, slb, sub)
				}
			}
		}
	}
}

func TestTLAESANoLooserThanLAESA(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		seed := int64(1300 + trial)
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(8)
		m := datasets.RandomMetric(n, seed)
		landmarks := rng.Perm(n)[:4]
		la := NewLAESA(n, landmarks, 1)
		tla := NewTLAESA(n, landmarks, 1)
		for _, e := range EdgesForBootstrap(n, landmarks) {
			la.Update(e.U, e.V, m.Distance(e.U, e.V))
		}
		tla.Bootstrap(func(i, j int) float64 {
			d := m.Distance(i, j)
			tla.Update(i, j, d)
			return d
		}, landmarks)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				llb, lub := la.Bounds(i, j)
				tlb, tub := tla.Bounds(i, j)
				if tlb < llb-1e-9 || tub > lub+1e-9 {
					t.Fatalf("seed %d (%d,%d): tlaesa [%v,%v] looser than laesa [%v,%v]",
						seed, i, j, tlb, tub, llb, lub)
				}
			}
		}
	}
}

func TestLAESAHandSized(t *testing.T) {
	// 3 collinear points under L1: d(0,1)=0.2, d(1,2)=0.3, d(0,2)=0.5,
	// landmark {0}. Bounds for (1,2): lb = |0.2−0.5| = 0.3, ub = 0.7.
	pts := [][]float64{{0}, {0.2}, {0.5}}
	v := metric.NewVectors(pts, 1, 1)
	la := NewLAESA(3, []int{0}, 1)
	la.Update(0, 1, v.Distance(0, 1))
	la.Update(0, 2, v.Distance(0, 2))
	lb, ub := la.Bounds(1, 2)
	if math.Abs(lb-0.3) > 1e-12 || math.Abs(ub-0.7) > 1e-12 {
		t.Fatalf("Bounds(1,2) = [%v,%v], want [0.3,0.7]", lb, ub)
	}
	// Pair involving the landmark itself is exact.
	lb, ub = la.Bounds(0, 2)
	if lb != 0.5 || ub != 0.5 {
		t.Fatalf("Bounds(0,2) = [%v,%v], want exact 0.5", lb, ub)
	}
}

func TestEdgesForBootstrapCount(t *testing.T) {
	// The paper's Bootstrap column: k·n − k − C(k,2) resolutions.
	cases := []struct{ n, k, want int }{
		{64, 6, 363},
		{128, 7, 868},
		{256, 8, 2012},
		{512, 9, 4563},
		{1000, 10, 9945},
	}
	for _, c := range cases {
		landmarks := make([]int, c.k)
		for i := range landmarks {
			landmarks[i] = i * (c.n / c.k)
		}
		got := len(EdgesForBootstrap(c.n, landmarks))
		if got != c.want {
			t.Errorf("n=%d k=%d: bootstrap edges %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestNoopBounds(t *testing.T) {
	nb := NewNoop(0.5)
	if lb, ub := nb.Bounds(0, 1); lb != 0 || ub != 0.5 {
		t.Fatalf("Bounds = [%v,%v], want [0,0.5]", lb, ub)
	}
	zero := &Noop{}
	if _, ub := zero.Bounds(0, 1); ub != 1 {
		t.Fatalf("zero-value Noop ub = %v, want 1", ub)
	}
}

func TestDFTNeverLies(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		seed := int64(2100 + trial)
		rng := rand.New(rand.NewSource(seed))
		n := 6
		m := datasets.RandomMetric(n, seed)
		d := NewDFT(n, 1)
		// Reveal half the edges.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					d.Update(i, j, m.Distance(i, j))
				}
			}
		}
		for probe := 0; probe < 60; probe++ {
			i, j := rng.Intn(n), rng.Intn(n)
			k, l := rng.Intn(n), rng.Intn(n)
			if i == j || k == l {
				continue
			}
			if d.ProveLess(i, j, k, l) && !(m.Distance(i, j) < m.Distance(k, l)) {
				t.Fatalf("seed %d: ProveLess(%d,%d,%d,%d) lied: %v vs %v",
					seed, i, j, k, l, m.Distance(i, j), m.Distance(k, l))
			}
			c := rng.Float64()
			if d.ProveLessC(i, j, c) && !(m.Distance(i, j) < c) {
				t.Fatalf("seed %d: ProveLessC(%d,%d,%v) lied: d=%v", seed, i, j, c, m.Distance(i, j))
			}
			if d.ProveGEC(i, j, c) && !(m.Distance(i, j) >= c) {
				t.Fatalf("seed %d: ProveGEC(%d,%d,%v) lied: d=%v", seed, i, j, c, m.Distance(i, j))
			}
		}
	}
}

func TestDFTSubsumesSPLUB(t *testing.T) {
	// Whenever SPLUB's tightest bounds decide a comparison, DFT must
	// decide it too (the LP reasons over the full joint polytope).
	seed := int64(3001)
	rng := rand.New(rand.NewSource(seed))
	n := 6
	m := datasets.RandomMetric(n, seed)
	g := pgraph.New(n)
	splub := NewSPLUB(g, 1)
	dft := NewDFT(n, 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				d := m.Distance(i, j)
				g.AddEdge(i, j, d)
				dft.Update(i, j, d)
			}
		}
	}
	checked := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := 0; k < n; k++ {
				for l := k + 1; l < n; l++ {
					if (i == k && j == l) || g.Known(i, j) || g.Known(k, l) {
						continue
					}
					_, ubIJ := splub.Bounds(i, j)
					lbKL, _ := splub.Bounds(k, l)
					if ubIJ < lbKL && !dft.ProveLess(i, j, k, l) {
						t.Fatalf("splub decided (%d,%d)<(%d,%d) but DFT could not", i, j, k, l)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no comparisons exercised")
	}
}

func TestDFTUpdateIdempotent(t *testing.T) {
	d := NewDFT(4, 1)
	rows := d.prob.NumRows()
	d.Update(0, 1, 0.4)
	after := d.prob.NumRows()
	d.Update(0, 1, 0.4) // duplicate must not add rows
	if d.prob.NumRows() != after {
		t.Fatalf("duplicate update added rows: %d -> %d", after, d.prob.NumRows())
	}
	if after != rows+2 {
		t.Fatalf("equality should add 2 rows, added %d", after-rows)
	}
}
