package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSessionBoundsBatchMatchesScalar pins the batch entry point to the
// scalar one on both dispatch paths — Tri implements bounds.BatchBounder,
// SPLUB falls back to the per-pair loop — including the BoundProbes
// accounting, which reconciliation dashboards difference against
// comparisons and would notice drifting.
func TestSessionBoundsBatchMatchesScalar(t *testing.T) {
	cases := []struct {
		name   string
		scheme Scheme
	}{
		{"tri-batchbounder", SchemeTri},
		{"splub-fallback", SchemeSPLUB},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 24
			s, _, _ := newTestSession(t, n, 11, tc.scheme, nil)
			rng := rand.New(rand.NewSource(3))
			for k := 0; k < 80; k++ {
				if i, j := rng.Intn(n), rng.Intn(n); i != j {
					s.Dist(i, j)
				}
			}
			var is, js []int
			for q := 0; q < 200; q++ {
				is = append(is, rng.Intn(n))
				js = append(js, rng.Intn(n))
			}
			is, js = append(is, 5), append(js, 5) // self-pair

			wantLB := make([]float64, len(is))
			wantUB := make([]float64, len(is))
			base := s.Stats().BoundProbes
			for q := range is {
				wantLB[q], wantUB[q] = s.Bounds(is[q], js[q])
			}
			scalarProbes := s.Stats().BoundProbes - base

			lb := make([]float64, len(is))
			ub := make([]float64, len(is))
			s.BoundsBatch(is, js, lb, ub)
			batchProbes := s.Stats().BoundProbes - base - scalarProbes
			if batchProbes != scalarProbes {
				t.Fatalf("batch counted %d probes, scalar %d", batchProbes, scalarProbes)
			}
			for q := range is {
				if lb[q] != wantLB[q] || ub[q] != wantUB[q] {
					t.Fatalf("pair (%d,%d): batch [%v,%v], scalar [%v,%v]",
						is[q], js[q], lb[q], ub[q], wantLB[q], wantUB[q])
				}
			}

			defer func() {
				if recover() == nil {
					t.Fatal("mismatched slice lengths did not panic")
				}
			}()
			s.BoundsBatch(is, js[:1], lb, ub)
		})
	}
}

// TestSharedBoundsBatch runs BoundsBatch while other goroutines resolve
// pairs: every batched interval must bracket the true distance, and once
// the writers stop the batch must answer what per-pair Bounds does.
func TestSharedBoundsBatch(t *testing.T) {
	const n = 16
	s, m, _ := newTestSession(t, n, 13, SchemeTri, nil)
	is := []int{0, 1, 2, 7, 7, 3}
	js := []int{0, 2, 1, 9, 9, 12}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(5 + w)))
			lb := make([]float64, len(is))
			ub := make([]float64, len(is))
			for k := 0; k < 20; k++ {
				if i, j := rng.Intn(n), rng.Intn(n); i != j {
					s.Dist(i, j)
				}
				s.BoundsBatch(is, js, lb, ub)
				for q := range is {
					if d := m.Distance(is[q], js[q]); lb[q] > d+1e-9 || ub[q] < d-1e-9 {
						t.Errorf("pair (%d,%d): batch [%v,%v] misses %v", is[q], js[q], lb[q], ub[q], d)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	lb := make([]float64, len(is))
	ub := make([]float64, len(is))
	s.BoundsBatch(is, js, lb, ub)
	for q := range is {
		wl, wu := s.Bounds(is[q], js[q])
		if lb[q] != wl || ub[q] != wu {
			t.Fatalf("pair (%d,%d): batch [%v,%v], scalar [%v,%v]", is[q], js[q], lb[q], ub[q], wl, wu)
		}
	}
}
