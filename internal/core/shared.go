package core

import (
	"sync"

	"metricprox/internal/obs"
	"metricprox/internal/pgraph"
)

// SharedSession is a concurrency-safe view of a Session. All knowledge
// (resolved pairs, tightened bounds, statistics) remains shared: a
// distance resolved by one goroutine prunes comparisons for every other.
//
// The lock protects only the in-memory bookkeeping — the partial graph,
// the bound scheme, the statistics. It is never held across an oracle
// round-trip: a comparison first tries to decide itself from bounds under
// the lock, and only when that fails does it resolve distances with the
// lock released. This matters because the library's entire premise is
// that the oracle dominates cost (milliseconds to seconds per call);
// holding a mutex across it would serialise every worker back to
// sequential wall-clock exactly when parallelism pays most.
//
// Concurrent resolutions of the same pair are deduplicated with a
// single-flight map: the first goroutine to need an unresolved pair makes
// the one oracle call, every other goroutine needing that pair blocks on
// the in-flight result. Each pair therefore costs at most one oracle call
// across all workers — the same guarantee the memoising sequential
// Session gives.
//
// Output identity still holds: a comparison is only short-circuited when
// the bounds make its outcome certain, and bounds only tighten as edges
// resolve, so every decision is sound regardless of the interleaving.
// Which comparisons get short-circuited (and hence the call count) does
// depend on resolution order; the answers do not.
type SharedSession struct {
	mu       sync.Mutex
	s        *Session
	inflight map[int64]*flight
}

// Share wraps a Session for concurrent use. The underlying Session must
// not be used directly while the shared view is live.
func Share(s *Session) *SharedSession {
	return &SharedSession{s: s, inflight: make(map[int64]*flight)}
}

// N returns the number of objects.
func (c *SharedSession) N() int { return c.s.N() } // immutable, no lock

// MaxDistance returns the configured distance cap.
func (c *SharedSession) MaxDistance() float64 { return c.s.MaxDistance() } // immutable, no lock

// DistErr resolves the exact distance for (i, j), making at most one
// oracle call per pair across all goroutines; see Session.DistErr. The
// lock is released for the duration of the oracle round-trip. A failed
// attempt is shared with every goroutine waiting on the same flight but
// commits nothing, so the pair can be retried by a later call.
func (c *SharedSession) DistErr(i, j int) (float64, error) {
	if i == j {
		return 0, nil
	}
	key := pgraph.Key(i, j)
	c.mu.Lock()
	if w, ok := c.s.Known(i, j); ok {
		c.mu.Unlock()
		return w, nil
	}
	if f, ok := c.inflight[key]; ok {
		// Another goroutine owns the oracle call for this pair; wait for
		// its result instead of duplicating the call.
		c.mu.Unlock()
		return f.wait()
	}
	f := newFlight()
	c.inflight[key] = f
	c.mu.Unlock()

	d, err := c.s.oracleDistanceErr(i, j) // the expensive part, unlocked

	c.mu.Lock()
	if err != nil {
		c.s.noteOracleErr(err)
	} else {
		c.s.commitResolution(i, j, d)
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	f.finish(d, err)
	return d, err
}

// Dist resolves the exact distance (memoised, single-flight), degrading
// like Session.Dist when the resolution fails.
func (c *SharedSession) Dist(i, j int) float64 {
	d, _, _ := c.degrade(opDist, i, j, -1, -1, 0)
	return d
}

// Known reports an already-resolved pair.
func (c *SharedSession) Known(i, j int) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Known(i, j)
}

// Bounds returns the current bounds without an oracle call.
func (c *SharedSession) Bounds(i, j int) (float64, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Bounds(i, j)
}

// BoundsBatch answers many bound queries in one pass under a single lock
// acquisition; see Session.BoundsBatch. No oracle call is ever made, so
// holding the lock for the whole batch is cheap — and one acquisition per
// batch is the point for prefetch-style callers.
func (c *SharedSession) BoundsBatch(is, js []int, lb, ub []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.BoundsBatch(is, js, lb, ub)
}

// Less reports whether dist(i,j) < dist(k,l). The bound-only decision
// runs under the lock; if it is inconclusive both distances are resolved
// with the lock released. On a failed resolution it degrades like
// Session.Less; use LessErr or LessOutcome to observe failures.
func (c *SharedSession) Less(i, j, k, l int) bool {
	_, less, _ := c.degrade(obs.OpLess, i, j, k, l, 0)
	return less
}

// LessErr is Less with error propagation; see Session.LessErr.
func (c *SharedSession) LessErr(i, j, k, l int) (bool, error) {
	_, less, _, err := c.compare(obs.OpLess, i, j, k, l, 0, false)
	return less, err
}

// LessOutcome is Less plus a per-call outcome report; see
// Session.LessOutcome.
func (c *SharedSession) LessOutcome(i, j, k, l int) (bool, Outcome) {
	_, less, out := c.degrade(obs.OpLess, i, j, k, l, 0)
	return less, out
}

// LessThan reports whether dist(i,j) < v, degrading like Session.LessThan
// on a failed resolution.
func (c *SharedSession) LessThan(i, j int, v float64) bool {
	_, less, _ := c.degrade(obs.OpLessThan, i, j, -1, -1, v)
	return less
}

// LessThanErr is LessThan with error propagation; see Session.LessThanErr.
func (c *SharedSession) LessThanErr(i, j int, v float64) (bool, error) {
	_, less, _, err := c.compare(obs.OpLessThan, i, j, -1, -1, v, false)
	return less, err
}

// DistIfLess is the value-needed comparison; see Session.DistIfLess. On a
// failed resolution the returned value is an uncommitted estimate.
func (c *SharedSession) DistIfLess(i, j int, v float64) (float64, bool) {
	d, less, _ := c.degrade(obs.OpDistIfLess, i, j, -1, -1, v)
	return d, less
}

// DistIfLessErr is DistIfLess with error propagation; see
// Session.DistIfLessErr.
func (c *SharedSession) DistIfLessErr(i, j int, v float64) (float64, bool, error) {
	d, less, _, err := c.compare(obs.OpDistIfLess, i, j, -1, -1, v, false)
	return d, less, err
}

// compare is SharedSession's one comparison tail; see Session.compare for
// the shapes and results. The decision runs under the lock; the
// resolutions run with it released, single-flight through DistErr.
func (c *SharedSession) compare(op string, i, j, k, l int, v float64, degrade bool) (d float64, less bool, out Outcome, err error) {
	var gap float64
	if op != opDist {
		c.mu.Lock()
		d, less, out, gap = c.s.decide(op, i, j, k, l, v)
		c.mu.Unlock()
		if out != OutcomeUndecided {
			return d, less, out, nil
		}
	}
	t0 := c.s.traceStart()
	d, err = c.DistErr(i, j)
	if err == nil && op == obs.OpLess {
		v, err = c.DistErr(k, l)
	}
	c.s.noteResolution(op, i, j, k, l, gap, t0, err, degrade)
	if err != nil {
		return 0, false, OutcomeUnavailable, err
	}
	return d, d < v, OutcomeExact, nil
}

// degrade is compare for the degrading methods and the one place a
// SharedSession answers from estimates; see Session.degrade. The
// estimates read the bound scheme, so they are taken under the lock.
func (c *SharedSession) degrade(op string, i, j, k, l int, v float64) (float64, bool, Outcome) {
	d, less, out, err := c.compare(op, i, j, k, l, v, true)
	if err != nil {
		c.mu.Lock()
		d = c.s.estimate(i, j)
		if op == obs.OpLess {
			v = c.s.estimate(k, l)
		}
		c.mu.Unlock()
		less = d < v
	}
	return d, less, out
}

// BootstrapErr resolves landmark rows and returns the calls spent and the
// first failed resolution; see Session.BootstrapErr. Bootstrap is a setup
// phase, not a hot path, so it runs under the full lock.
func (c *SharedSession) BootstrapErr(landmarks []int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//proxlint:allow lockheldoracle -- setup phase: bootstrap runs before workers start, so holding the lock across its oracle calls serialises nothing; the comparison tail is the hot path and releases the lock around every round-trip
	return c.s.BootstrapErr(landmarks)
}

// OracleErr returns the first resolution failure the session has seen;
// see Session.OracleErr.
func (c *SharedSession) OracleErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.OracleErr()
}

// SlackEps returns the additive slack currently applied to derived
// intervals; see Session.SlackEps.
func (c *SharedSession) SlackEps() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.SlackEps()
}

// Stats snapshots the session statistics.
func (c *SharedSession) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Stats()
}
