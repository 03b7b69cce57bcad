package core

import (
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricprox/internal/cachestore"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/pgraph"
)

// TestSharedSessionSingleFlightDist proves the single-flight guarantee in
// its purest form: many goroutines resolving the same unresolved pair at
// the same time result in exactly one oracle call, with every goroutine
// seeing the exact distance.
func TestSharedSessionSingleFlightDist(t *testing.T) {
	m := datasets.RandomMetric(10, 61)
	inst := metric.NewInstrumented(m, 5*time.Millisecond)
	o := metric.NewOracle(inst)
	c := NewSession(o, SchemeTri)

	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g] = c.Dist(3, 7)
		}(g)
	}
	close(start)
	wg.Wait()

	want := m.Distance(3, 7)
	for g, d := range results {
		if d != want {
			t.Fatalf("goroutine %d got %v, want %v", g, d, want)
		}
	}
	if calls := inst.PairCalls(3, 7); calls != 1 {
		t.Fatalf("pair (3,7) cost %d oracle calls under contention, want 1 (single-flight)", calls)
	}
}

// TestSharedSessionStress hammers the concurrent comparison API over a
// small universe (maximum pair contention) against a latency-injecting
// oracle, asserting throughout that
//
//   - no pair is ever resolved by the oracle more than once (single-flight
//     deduplication, the zero-duplicate-calls acceptance criterion),
//   - every bound interval brackets the true distance (lb ≤ d ≤ ub), and
//   - every answer matches ground truth computed directly on the matrix.
//
// Run with -race this doubles as the memory-safety proof for the
// unlocked-oracle resolve path.
func TestSharedSessionStress(t *testing.T) {
	const (
		n          = 24
		goroutines = 12
		iters      = 300
	)
	for _, scheme := range []Scheme{SchemeTri, SchemeSPLUB, SchemeADM} {
		m := datasets.RandomMetric(n, 62)
		inst := metric.NewInstrumented(m, 100*time.Microsecond)
		o := metric.NewOracle(inst)
		c := NewSession(o, scheme)

		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + g)))
				fail := func(msg string) {
					select {
					case errs <- msg:
					default:
					}
				}
				for it := 0; it < iters; it++ {
					i, j := rng.Intn(n), rng.Intn(n)
					k, l := rng.Intn(n), rng.Intn(n)
					if i == j || k == l {
						continue
					}
					switch it % 4 {
					case 0:
						got := c.Less(i, j, k, l)
						if want := m.Distance(i, j) < m.Distance(k, l); got != want {
							fail("Less diverged from ground truth")
						}
					case 1:
						thr := rng.Float64()
						d, less := c.DistIfLess(i, j, thr)
						want := m.Distance(i, j)
						if less != (want < thr) || (less && d != want) {
							fail("DistIfLess diverged from ground truth")
						}
					case 2:
						thr := rng.Float64()
						if got := c.LessThan(i, j, thr); got != (m.Distance(i, j) < thr) {
							fail("LessThan diverged from ground truth")
						}
					case 3:
						lb, ub := c.Bounds(i, j)
						d := m.Distance(i, j)
						if lb > d+1e-9 || ub < d-1e-9 {
							fail("bounds do not bracket the true distance")
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatalf("scheme %v: %s", scheme, msg)
		}

		if max := inst.MaxPairCalls(); max > 1 {
			t.Fatalf("scheme %v: some pair cost %d oracle calls, want at most 1", scheme, max)
		}
		if st := c.Stats(); st.OracleCalls != o.Calls() {
			t.Fatalf("scheme %v: session counted %d oracle calls, oracle saw %d", scheme, st.OracleCalls, o.Calls())
		}
	}
}

// TestSharedSessionMatchesSequentialAnswers runs the same random
// comparison workload through a Session used by one goroutine and one
// shared by eight: every individual answer must agree, because each is
// exact regardless of resolution order.
func TestSharedSessionMatchesSequentialAnswers(t *testing.T) {
	const n = 20
	m := datasets.RandomMetric(n, 63)

	type q struct{ i, j, k, l int }
	rng := rand.New(rand.NewSource(64))
	queries := make([]q, 400)
	for x := range queries {
		for {
			queries[x] = q{rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n)}
			if queries[x].i != queries[x].j && queries[x].k != queries[x].l {
				break
			}
		}
	}

	seq := NewSession(metric.NewOracle(m), SchemeTri)
	want := make([]bool, len(queries))
	for x, qu := range queries {
		want[x] = seq.Less(qu.i, qu.j, qu.k, qu.l)
	}

	c := NewSession(metric.NewOracle(m), SchemeTri)
	got := make([]bool, len(queries))
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := w; x < len(queries); x += workers {
				qu := queries[x]
				got[x] = c.Less(qu.i, qu.j, qu.k, qu.l)
			}
		}(w)
	}
	wg.Wait()
	for x := range queries {
		if got[x] != want[x] {
			t.Fatalf("query %d: concurrent Less = %v, sequential = %v", x, got[x], want[x])
		}
	}
}

// gatedSpace holds the first Distance call on one pair until release is
// closed, closing entered when that call starts; later calls pass.
type gatedSpace struct {
	metric.Space
	key              int64
	entered, release chan struct{}
	held             atomic.Bool
}

func (g *gatedSpace) Distance(i, j int) float64 {
	if pgraph.Key(i, j) == g.key && g.held.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
	return g.Space.Distance(i, j)
}

// TestBootstrapWaitsForInFlightPair races a bootstrap against a
// resolution of a pair in its landmark row: goroutine A's DistErr(0, 5)
// is inside the oracle when goroutine B bootstraps landmark 0. B must
// wait for A's call instead of making its own, so every pair costs one
// oracle call and one store record, and A's call counts in the run
// phase, not in B's spent figure. While B waits, with the lock free, a
// second handle on the store replays every resolution B committed.
func TestBootstrapWaitsForInFlightPair(t *testing.T) {
	const n = 16
	m := datasets.RandomMetric(n, 65)
	gated := &gatedSpace{Space: m, key: pgraph.Key(0, 5), entered: make(chan struct{}), release: make(chan struct{})}
	inst := metric.NewInstrumented(gated, 0)
	s := NewSessionWithLandmarks(metric.NewOracle(inst), SchemeLAESA, []int{0})
	path := filepath.Join(t.TempDir(), "race.mpx")
	store, err := cachestore.Create(path, n)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := s.AttachStore(store); err != nil {
		t.Fatal(err)
	}

	aDone := make(chan error, 1)
	go func() {
		_, err := s.DistErr(0, 5)
		aDone <- err
	}()
	<-gated.entered

	type result struct {
		spent int64
		err   error
	}
	bDone := make(chan result, 1)
	go func() {
		spent, err := s.BootstrapErr([]int{0})
		bDone <- result{spent, err}
	}()
	// Let B run until it finishes or waits on A's flight (the first
	// waiter allocates it), then let A's oracle call return.
	var b result
	finished, waiting := false, false
	for !finished && !waiting {
		select {
		case b = <-bDone:
			finished = true
		case <-time.After(time.Millisecond):
			s.mu.Lock()
			for _, c := range s.inflight {
				waiting = waiting || c.key == gated.key && c.f != nil
			}
			s.mu.Unlock()
		}
	}
	if waiting {
		// B let go of the lock to wait, so the file holds every
		// resolution B committed before (0, 5): (0, 1) … (0, 4).
		var committed []cachestore.Record
		for x := 1; x < 5; x++ {
			committed = append(committed, cachestore.Record{I: 0, J: x, Dist: m.Distance(0, x)})
		}
		assertReplays(t, path, committed, "while the bootstrap waits")
	}
	close(gated.release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if !finished {
		b = <-bDone
	}
	if b.err != nil {
		t.Fatal(b.err)
	}

	if max := inst.MaxPairCalls(); max != 1 {
		t.Errorf("some pair cost %d oracle calls, want 1", max)
	}
	if records, err := store.Len(); err != nil || records != n-1 {
		t.Errorf("store holds %d records (err %v), want %d: one per pair", records, err, n-1)
	}
	st := s.Stats()
	if st.OracleCalls != n-1 || st.BootstrapCalls != n-2 || b.spent != n-2 {
		t.Errorf("OracleCalls %d, BootstrapCalls %d, spent %d; want %d, %d, %d (A's call is a run call)",
			st.OracleCalls, st.BootstrapCalls, b.spent, n-1, n-2, n-2)
	}
	if lb, ub := s.Bounds(0, 5); lb != m.Distance(0, 5) || ub != lb {
		t.Errorf("Bounds(0, 5) = [%v, %v], want the resolved %v", lb, ub, m.Distance(0, 5))
	}
}
