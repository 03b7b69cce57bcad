package bounds

import (
	"math"
	"math/rand"
	"testing"

	"metricprox/internal/datasets"
	"metricprox/internal/pgraph"
)

func TestHybridSoundAndTighterThanCheap(t *testing.T) {
	for trial := int64(0); trial < 5; trial++ {
		m := datasets.RandomMetric(16, 1600+trial)
		g := pgraph.New(16)
		h := NewHybrid(NewTri(g, 1), NewSPLUB(g, 1), 0.1)
		tri := NewTri(g, 1)
		rng := rand.New(rand.NewSource(trial))
		for e := 0; e < 40; e++ {
			i, j := rng.Intn(16), rng.Intn(16)
			if i == j || g.Known(i, j) {
				continue
			}
			h.Update(i, j, m.Distance(i, j))
		}
		for i := 0; i < 16; i++ {
			for j := i + 1; j < 16; j++ {
				lb, ub := h.Bounds(i, j)
				d := m.Distance(i, j)
				if lb > d+1e-9 || ub < d-1e-9 {
					t.Fatalf("hybrid unsound at (%d,%d): [%v,%v] excludes %v", i, j, lb, ub, d)
				}
				clb, cub := tri.Bounds(i, j)
				if lb < clb-1e-12 || ub > cub+1e-12 {
					t.Fatalf("hybrid looser than its cheap input at (%d,%d)", i, j)
				}
			}
		}
	}
}

// countingBounder counts the queries that reach the bounder it wraps.
type countingBounder struct {
	Bounder
	queries int
}

func (c *countingBounder) Bounds(i, j int) (float64, float64) {
	c.queries++
	return c.Bounder.Bounds(i, j)
}

func TestHybridEscalationPolicy(t *testing.T) {
	m := datasets.RandomMetric(20, 1700)
	g := pgraph.New(20)
	// Gap = maxDist: never escalate.
	neverTight := &countingBounder{Bounder: NewSPLUB(g, 1)}
	never := NewHybrid(NewTri(g, 1), neverTight, 1)
	// Gap = 0: always escalate (on unknown pairs the Tri interval has
	// positive width unless a triangle pins it exactly).
	alwaysTight := &countingBounder{Bounder: NewSPLUB(g, 1)}
	always := NewHybrid(NewTri(g, 1), alwaysTight, 0)
	rng := rand.New(rand.NewSource(3))
	for e := 0; e < 30; e++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if i == j || g.Known(i, j) {
			continue
		}
		never.Update(i, j, m.Distance(i, j))
	}
	probes := 0
	for i := 0; i < 20 && probes < 50; i++ {
		for j := i + 1; j < 20 && probes < 50; j++ {
			if g.Known(i, j) {
				continue
			}
			never.Bounds(i, j)
			always.Bounds(i, j)
			probes++
		}
	}
	if neverTight.queries != 0 {
		t.Fatalf("gap=maxDist escalated %d times", neverTight.queries)
	}
	if alwaysTight.queries != probes {
		t.Fatalf("gap=0 escalated %d of %d queries, want all", alwaysTight.queries, probes)
	}
	if name := never.Name(); name != "hybrid(tri+splub)" {
		t.Fatalf("Name = %q", name)
	}
}

func TestDFTCompletion(t *testing.T) {
	m := datasets.RandomMetric(6, 1800)
	d := NewDFT(6, 1)
	rng := rand.New(rand.NewSource(5))
	for e := 0; e < 7; e++ {
		i, j := rng.Intn(6), rng.Intn(6)
		if i != j {
			d.Update(i, j, m.Distance(i, j))
		}
	}
	comp, ok := d.Completion()
	if !ok {
		t.Fatal("consistent knowledge reported contradictory")
	}
	// The completion must reproduce the knowns exactly (within simplex eps)
	// and be a metric.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if comp[i][j] != comp[j][i] {
				t.Fatalf("completion asymmetric at (%d,%d)", i, j)
			}
			if i == j && comp[i][j] != 0 {
				t.Fatalf("nonzero diagonal at %d", i)
			}
			for k := 0; k < 6; k++ {
				if comp[i][j] > comp[i][k]+comp[k][j]+1e-6 {
					t.Fatalf("completion violates triangle (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if lb, ub := d.Bounds(i, j); lb == ub { // known pair
				if math.Abs(comp[i][j]-lb) > 1e-6 {
					t.Fatalf("completion %v disagrees with known %v at (%d,%d)", comp[i][j], lb, i, j)
				}
			}
		}
	}
}
