package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"metricprox/internal/cachestore"
	"metricprox/internal/metric"
)

// gridSpace is a tiny deterministic metric: points on a line with
// distance |i−j|/n, so every pairwise distance is exact in float64.
type gridSpace struct{ n int }

func (g gridSpace) Len() int { return g.n }
func (g gridSpace) Distance(i, j int) float64 {
	d := i - j
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(g.n)
}

// scriptedFallible fails a scripted number of DistanceCtx calls before
// serving exact gridSpace distances. It also carries a switchable Ready
// so degraded bounds-only accounting can be exercised.
type scriptedFallible struct {
	mu       sync.Mutex
	space    gridSpace
	failures int // calls to fail before succeeding
	calls    int
	ready    bool

	retries, timeouts, opens int64 // reported via PolicyCounters
}

func (f *scriptedFallible) Len() int { return f.space.Len() }

func (f *scriptedFallible) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	f.mu.Lock()
	f.calls++
	call, fail := f.calls, false
	if f.failures > 0 {
		f.failures--
		fail = true
	}
	f.mu.Unlock()
	if fail {
		return 0, fmt.Errorf("scripted failure (call %d)", call)
	}
	return f.space.Distance(i, j), nil
}

func (f *scriptedFallible) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ready
}

func (f *scriptedFallible) PolicyCounters() (retries, timeouts, breakerOpens int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retries, f.timeouts, f.opens
}

func newScripted(n, failures int) *scriptedFallible {
	return &scriptedFallible{space: gridSpace{n: n}, failures: failures, ready: true}
}

func TestDistErrFailsThenRetrySucceeds(t *testing.T) {
	fo := newScripted(8, 1)
	s := NewFallibleSession(fo, SchemeTri)
	if _, err := s.DistErr(0, 4); !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("DistErr on failing oracle: err = %v, want ErrOracleUnavailable", err)
	}
	if _, ok := s.Known(0, 4); ok {
		t.Fatal("failed resolution was committed to the graph")
	}
	if s.Stats().OracleCalls != 0 {
		t.Fatalf("failed resolution counted as an oracle call: %+v", s.Stats())
	}
	if s.OracleErr() == nil {
		t.Fatal("OracleErr not latched after a failed resolution")
	}
	// The pair stays retryable: the next call succeeds and commits.
	d, err := s.DistErr(0, 4)
	if err != nil || d != 0.5 {
		t.Fatalf("retry after failure: (%v, %v), want (0.5, nil)", d, err)
	}
	if w, ok := s.Known(0, 4); !ok || w != 0.5 {
		t.Fatalf("retried resolution not committed: (%v, %v)", w, ok)
	}
}

func TestLegacyDistDegradesToUncommittedEstimate(t *testing.T) {
	fo := newScripted(8, 100) // fails for the whole test
	s := NewFallibleSession(fo, SchemeTri)
	d := s.Dist(0, 4)
	lo, hi := s.Bounds(0, 4)
	if d != (lo+hi)/2 {
		t.Fatalf("degraded Dist = %v, want bounds midpoint %v", d, (lo+hi)/2)
	}
	if _, ok := s.Known(0, 4); ok {
		t.Fatal("estimate was committed to the graph")
	}
	st := s.Stats()
	if st.DegradedAnswers != 1 {
		t.Fatalf("DegradedAnswers = %d, want 1", st.DegradedAnswers)
	}
	if st.OracleCalls != 0 {
		t.Fatalf("degraded answer counted as oracle call: %+v", st)
	}
	if s.OracleErr() == nil {
		t.Fatal("OracleErr not latched")
	}
}

func TestLessOutcomeClassification(t *testing.T) {
	fo := newScripted(16, 0)
	s := NewFallibleSession(fo, SchemeTri)
	// No knowledge yet: must resolve → exact.
	if r, out := s.LessOutcome(0, 1, 0, 15); !r || out != OutcomeExact {
		t.Fatalf("cold comparison = (%v, %v), want (true, exact)", r, out)
	}
	// Same pairs again: cache hit → exact.
	if r, out := s.LessOutcome(0, 1, 0, 15); !r || out != OutcomeExact {
		t.Fatalf("cached comparison = (%v, %v), want (true, exact)", r, out)
	}
	// dist(0,1)=1/16 vs dist(0,14): triangle bounds from the resolved
	// edges prove it without resolving (0,14) exactly only if conclusive;
	// accept either exact or bounds but not unavailable.
	if _, out := s.LessOutcome(0, 1, 0, 14); out == OutcomeUnavailable || out == OutcomeUndecided {
		t.Fatalf("healthy oracle produced outcome %v", out)
	}
	// Now break the oracle: an undecidable comparison degrades.
	fo.mu.Lock()
	fo.failures = 1 << 30
	fo.mu.Unlock()
	if _, out := s.LessOutcome(3, 9, 5, 12); out != OutcomeUnavailable {
		t.Fatalf("broken oracle comparison outcome = %v, want unavailable", out)
	}
	if s.Stats().DegradedAnswers == 0 {
		t.Fatal("unavailable outcome did not count a DegradedAnswer")
	}
}

func TestBoundsOnlyAnswersCountDegradedWhileNotReady(t *testing.T) {
	fo := newScripted(8, 0)
	s := NewFallibleSession(fo, SchemeTri)
	if d, err := s.DistErr(0, 7); err != nil || d != 7.0/8 {
		t.Fatalf("seed resolution failed: (%v, %v)", d, err)
	}
	fo.mu.Lock()
	fo.ready = false // breaker open from now on
	fo.mu.Unlock()
	// dist(0,7) is known exactly: cache hit, not degraded.
	if r, err := s.LessThanErr(0, 7, 1); err != nil || !r {
		t.Fatalf("cache-hit comparison = (%v, %v)", r, err)
	}
	before := s.Stats().DegradedAnswers
	// dist(1,2) < 2 is provable from the a-priori cap maxDist=1 without
	// any oracle call — a bounds answer while the breaker is open.
	if r, err := s.LessThanErr(1, 2, 2); err != nil || !r {
		t.Fatalf("bounds comparison = (%v, %v)", r, err)
	}
	st := s.Stats()
	if st.DegradedAnswers != before+1 {
		t.Fatalf("DegradedAnswers = %d, want %d (bounds answer while breaker open)", st.DegradedAnswers, before+1)
	}
	if st.SavedComparisons == 0 {
		t.Fatal("bounds answer not counted as saved")
	}
}

func TestStatsMirrorsPolicyCounters(t *testing.T) {
	fo := newScripted(8, 0)
	fo.retries, fo.timeouts, fo.opens = 7, 2, 1
	s := NewFallibleSession(fo, SchemeNoop)
	st := s.Stats()
	if st.Retries != 7 || st.Timeouts != 2 || st.BreakerOpens != 1 {
		t.Fatalf("policy counters not mirrored: %+v", st)
	}
}

func TestBootstrapErrAbortsSoundly(t *testing.T) {
	fo := newScripted(12, 0)
	landmarks := []int{0, 6}
	s := NewFallibleSessionWithLandmarks(fo, SchemeLAESA, landmarks)
	fo.mu.Lock()
	fo.failures = 1 // the first bootstrap resolution fails, aborting it
	fo.mu.Unlock()
	spent, err := s.BootstrapErr(landmarks)
	if err == nil {
		t.Fatal("BootstrapErr over failing oracle returned nil error")
	}
	if !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("bootstrap abort error = %v, want ErrOracleUnavailable", err)
	}
	if spent != 0 {
		// DistErr fails on the very first call (failures=5 > 0), so no
		// calls were spent before the abort.
		t.Fatalf("spent = %d calls before abort, want 0", spent)
	}
	// The abort consumed the only scripted failure, so the oracle has
	// recovered; the partially bootstrapped session must answer exactly.
	for i := 1; i < 12; i++ {
		d, derr := s.DistErr(0, i)
		if derr != nil {
			t.Fatalf("DistErr(0,%d) after recovery: %v", i, derr)
		}
		if want := (gridSpace{n: 12}).Distance(0, i); d != want {
			t.Fatalf("DistErr(0,%d) = %v, want %v", i, d, want)
		}
	}
	// A completed second bootstrap fills the remaining rows.
	if _, err := s.BootstrapErr(landmarks); err != nil {
		t.Fatalf("bootstrap after recovery: %v", err)
	}
}

func TestSharedSessionErrorPropagationAndRetry(t *testing.T) {
	fo := newScripted(8, 1)
	c := NewFallibleSession(fo, SchemeTri)
	if _, err := c.DistErr(2, 5); !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("shared DistErr: err = %v, want ErrOracleUnavailable", err)
	}
	if c.OracleErr() == nil {
		t.Fatal("shared OracleErr not latched")
	}
	d, err := c.DistErr(2, 5)
	if err != nil || d != 3.0/8 {
		t.Fatalf("shared retry: (%v, %v), want (0.375, nil)", d, err)
	}
	if got := c.Stats().OracleCalls; got != 1 {
		t.Fatalf("OracleCalls = %d, want 1 (failure not counted)", got)
	}
}

func TestSharedSessionConcurrentFailuresStaySound(t *testing.T) {
	const n = 24
	fo := newScripted(n, 40) // first 40 backend calls fail
	c := NewFallibleSession(fo, SchemeTri)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				j := (i + w + 1) % n
				if i == j {
					continue
				}
				d, err := c.DistErr(i, j)
				if err != nil {
					continue // failure is fine; wrong value is not
				}
				if want := (gridSpace{n: n}).Distance(i, j); d != want {
					t.Errorf("DistErr(%d,%d) = %v, want %v", i, j, d, want)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every committed edge must be exact.
	g := c.Graph()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w, ok := g.Weight(i, j); ok {
				if want := (gridSpace{n: n}).Distance(i, j); w != want {
					t.Fatalf("graph edge (%d,%d) = %v, want %v", i, j, w, want)
				}
			}
		}
	}
}

// TestStoreFailureSurfacing exercises the cache-store failure path: a
// store whose file has been closed under the session keeps the session
// running, counts every failed append, latches StoreErr, and logs once.
func TestStoreFailureSurfacing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.mpx")
	store, err := cachestore.Create(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logs)
	fo := metric.NewOracle(gridSpace{n: 8})
	s := NewFallibleSession(fo, SchemeTri)
	if err := s.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	s.Dist(0, 1) // healthy append
	if st := s.Stats(); st.StoreErrors != 0 || s.StoreErr() != nil {
		t.Fatalf("healthy store reported errors: %+v, %v", st, s.StoreErr())
	}
	if err := store.Close(); err != nil { // the disk goes away
		t.Fatal(err)
	}
	d1 := s.Dist(0, 2)
	d2 := s.Dist(0, 3)
	if d1 != 2.0/8 || d2 != 3.0/8 {
		t.Fatalf("resolutions after store failure: %v, %v", d1, d2)
	}
	st := s.Stats()
	if st.StoreErrors != 2 {
		t.Fatalf("StoreErrors = %d, want 2", st.StoreErrors)
	}
	if s.StoreErr() == nil {
		t.Fatal("StoreErr not latched")
	}
	if lines := strings.Split(strings.TrimSuffix(logs.String(), "\n"), "\n"); len(lines) != 1 {
		t.Fatalf("store failure logged %d times, want exactly once: %q", len(lines), lines)
	}
	if !strings.Contains(logs.String(), "cache store append failed") {
		t.Fatalf("unexpected log line: %q", logs.String())
	}
	if st.OracleCalls != 3 {
		t.Fatalf("OracleCalls = %d, want 3 (store failures must not cost calls)", st.OracleCalls)
	}
}
