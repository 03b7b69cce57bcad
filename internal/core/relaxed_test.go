package core

import (
	"math/rand"
	"testing"

	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

// squaredSpace returns a squared-Euclidean space (ρ = 2 relaxed metric)
// normalised into [0,1].
func squaredSpace(n int, seed int64) *metric.Power {
	base := datasets.SFPOIPlanar(n, seed) // L1 in [0,1]
	return metric.NewPower(base, 2)
}

func TestPowerRho(t *testing.T) {
	base := datasets.SFPOIPlanar(10, 1)
	if got := metric.NewPower(base, 0.5).Rho(); got != 1 {
		t.Fatalf("snowflake Rho = %v, want 1", got)
	}
	if got := metric.NewPower(base, 2).Rho(); got != 2 {
		t.Fatalf("squared Rho = %v, want 2", got)
	}
	if got := metric.NewPower(base, 3).Rho(); got != 4 {
		t.Fatalf("cubed Rho = %v, want 4", got)
	}
}

func TestPowerRelaxedTriangleHolds(t *testing.T) {
	// d² must satisfy the ρ=2 relaxed inequality on sampled triples.
	sq := squaredSpace(40, 2)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		i, j, k := rng.Intn(40), rng.Intn(40), rng.Intn(40)
		if sq.Distance(i, j) > 2*(sq.Distance(i, k)+sq.Distance(k, j))+1e-12 {
			t.Fatalf("relaxed triangle violated on (%d,%d,%d)", i, j, k)
		}
	}
}

func TestRelaxedTriComparisonsExact(t *testing.T) {
	// The framework's exactness guarantee must survive relaxation: every
	// comparison over the ρ=2 space answers exactly as ground truth.
	sq := squaredSpace(25, 4)
	o := metric.NewOracle(sq)
	s := NewSession(o, SchemeTri, WithSlack(SlackPolicy{Ratio: 2}))
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		i, j, k, l := rng.Intn(25), rng.Intn(25), rng.Intn(25), rng.Intn(25)
		if i == j || k == l {
			continue
		}
		want := sq.Distance(i, j) < sq.Distance(k, l)
		if got := s.Less(i, j, k, l); got != want {
			t.Fatalf("relaxed Less(%d,%d,%d,%d) = %v, want %v", i, j, k, l, got, want)
		}
	}
}

func TestRelaxedTriSoundBounds(t *testing.T) {
	sq := squaredSpace(20, 6)
	o := metric.NewOracle(sq)
	s := NewSession(o, SchemeTri, WithSlack(SlackPolicy{Ratio: 2}))
	rng := rand.New(rand.NewSource(7))
	for e := 0; e < 60; e++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if i != j {
			s.Dist(i, j)
		}
	}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			lb, ub := s.Bounds(i, j)
			d := sq.Distance(i, j)
			if lb > d+1e-9 || ub < d-1e-9 {
				t.Fatalf("relaxed bounds [%v,%v] exclude %v at (%d,%d)", lb, ub, d, i, j)
			}
		}
	}
}

func TestRelaxedTriStillSaves(t *testing.T) {
	sq := squaredSpace(60, 8)
	run := func(opts ...Option) int64 {
		o := metric.NewOracle(sq)
		s := NewSession(o, SchemeTri, opts...)
		rng := rand.New(rand.NewSource(9))
		for r := 0; r < 2000; r++ {
			i, j, k, l := rng.Intn(60), rng.Intn(60), rng.Intn(60), rng.Intn(60)
			if i == j || k == l {
				continue
			}
			s.Less(i, j, k, l)
		}
		return o.Calls()
	}
	noop := func() int64 {
		o := metric.NewOracle(sq)
		s := NewSession(o, SchemeNoop)
		rng := rand.New(rand.NewSource(9))
		for r := 0; r < 2000; r++ {
			i, j, k, l := rng.Intn(60), rng.Intn(60), rng.Intn(60), rng.Intn(60)
			if i == j || k == l {
				continue
			}
			s.Less(i, j, k, l)
		}
		return o.Calls()
	}()
	relaxed := run(WithSlack(SlackPolicy{Ratio: 2}))
	if relaxed >= noop {
		t.Fatalf("relaxed Tri saved nothing: %d vs noop %d", relaxed, noop)
	}
}

func TestRelaxedRejectsUnsupportedSchemes(t *testing.T) {
	sq := squaredSpace(10, 10)
	o := metric.NewOracle(sq)
	defer func() {
		if recover() == nil {
			t.Fatal("SPLUB with ratio slack did not panic")
		}
	}()
	NewSession(o, SchemeSPLUB, WithSlack(SlackPolicy{Ratio: 2}))
}

func TestUnrelaxedTriWouldBeUnsound(t *testing.T) {
	// Negative control: treating d² as a true metric (ρ=1) must produce a
	// bound violation somewhere — demonstrating that the relaxation is
	// load-bearing, not decorative.
	sq := squaredSpace(20, 11)
	o := metric.NewOracle(sq)
	s := NewSession(o, SchemeTri) // wrong: no ratio slack
	rng := rand.New(rand.NewSource(12))
	for e := 0; e < 80; e++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if i != j {
			s.Dist(i, j)
		}
	}
	violated := false
	for i := 0; i < 20 && !violated; i++ {
		for j := i + 1; j < 20 && !violated; j++ {
			if _, known := s.Known(i, j); known {
				continue
			}
			lb, ub := s.Bounds(i, j)
			d := sq.Distance(i, j)
			if lb > d+1e-9 || ub < d-1e-9 {
				violated = true
			}
		}
	}
	if !violated {
		t.Skip("no violation surfaced on this seed — acceptable, the property is existential")
	}
}
