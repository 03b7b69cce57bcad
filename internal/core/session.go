// Package core implements the paper's primary contribution: a unified,
// output-preserving framework that lets any proximity algorithm resolve its
// distance-comparing IF statements against triangle-inequality bounds
// before paying for a distance-oracle call.
//
// The practitioner's recipe (Sections 2–4 of the paper):
//
//  1. Wrap the expensive distance function in a Session.
//  2. Re-author each IF of the form `if dist(a,b) < dist(c,d)` as a call to
//     Session.Less (or LessThan / DistIfLess when the branch needs the
//     actual value).
//  3. Pick a bound scheme: Tri for scale, SPLUB for tightest graph bounds,
//     DFT for maximum savings on tiny inputs, or a baseline for comparison.
//  4. Optionally Bootstrap with LAESA-style landmarks.
//
// The framework guarantees the re-authored algorithm computes *exactly*
// the answers of the original: a comparison is only short-circuited when
// the triangle inequality makes its outcome certain.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"metricprox/internal/bounds"
	"metricprox/internal/cachestore"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
	"metricprox/internal/pgraph"
)

// Stats is a point-in-time snapshot of a Session's instrumentation.
// OracleCalls is the paper's primary cost metric; SavedComparisons counts
// IF statements resolved from bounds alone. The live counters behind a
// snapshot are the session's own obs counters (see internal/obs and
// WithObserver), so a snapshot counts this session's events only; Stats
// remains the stable reporting surface experiments and CLIs consume.
type Stats struct {
	// OracleCalls is the number of distances resolved through the oracle
	// by this session (bootstrap included).
	OracleCalls int64
	// BootstrapCalls is the subset of OracleCalls spent on landmark
	// bootstrap (the Bootstrap column of Tables 2–3).
	BootstrapCalls int64
	// BoundProbes counts Bounds() evaluations performed for comparisons.
	// A DistIfLess whose threshold exceeds the distance cap makes none:
	// no interval can settle it (see decide).
	BoundProbes int64
	// SavedComparisons counts comparisons decided without any oracle call.
	SavedComparisons int64
	// ResolvedComparisons counts comparisons that needed the oracle.
	ResolvedComparisons int64
	// CacheHits counts comparisons answered from already-resolved pairs.
	CacheHits int64

	// --- failure-model counters (see DESIGN.md §7) ---

	// Retries counts failed oracle attempts that were retried by the
	// resilient policy layer (0 for infallible in-process oracles).
	Retries int64
	// Timeouts counts oracle attempts that hit a context deadline.
	Timeouts int64
	// BreakerOpens counts circuit-breaker closed/half-open → open
	// transitions in the policy layer.
	BreakerOpens int64
	// DegradedAnswers counts answers produced while the oracle was
	// unavailable: comparisons settled from bounds alone with the breaker
	// open (still exact — bounds are sound) plus best-effort estimates
	// returned by the legacy infallible methods after a failed resolution
	// (not exact; the session's OracleErr is set alongside).
	DegradedAnswers int64
	// StoreErrors counts resolutions the attached persistent cache failed
	// to take, one per record not written (the resolutions stay in
	// memory; only the on-disk cache is short).
	StoreErrors int64

	// --- near-metric counters (see DESIGN.md §12) ---

	// SlackResolved counts comparisons settled from bound intervals that
	// were widened by an active SlackPolicy — a subset of
	// SavedComparisons, exact under the declared near-metric contract
	// rather than unconditionally.
	SlackResolved int64
	// Violations counts triangle-inequality violations the attached
	// auditor observed among resolved distances (0 when no auditor).
	Violations int64
}

// Session mediates every distance access of a proximity algorithm. It
// memoises resolved distances in a partial graph, consults a pluggable
// Bounder (and, under SchemeDFT, its Comparator) to short-circuit
// comparisons, and records statistics.
//
// A Session is safe for concurrent use, and what it learns is shared: a
// distance one goroutine resolves tightens the bounds every other
// goroutine decides with. One mutex guards the bookkeeping, and no
// comparison holds it across an oracle round-trip. Resolutions are
// single-flight, so a pair costs at most one oracle call across all
// goroutines. Answers do not depend on the interleaving; the call count
// can. With one goroutine the session makes the same decisions in the
// same order as a sequential run. See DESIGN.md, "Concurrency model".
type Session struct {
	fo      metric.FallibleOracle
	g       *pgraph.Graph
	b       bounds.Bounder
	cmp     bounds.Comparator
	maxDist float64

	// mu guards the mutable bookkeeping: g, b, cmp, inflight, oracleErr,
	// store, hold and storeErr. Only BootstrapErr holds it across oracle
	// calls.
	mu sync.Mutex
	// inflight lists the pairs some goroutine is resolving with the lock
	// released: at most one per goroutine, so a scan beats hashing. A
	// claim's flight stays nil until a second goroutine needs the pair,
	// so an uncontended resolution allocates nothing (see claim).
	inflight []claimed

	// ins holds the session's own counters behind Stats, linked into
	// the observer's registry series when one is attached. Each
	// recording is atomic, so paths outside the lock may bump them too.
	ins *obs.SessionInstruments

	// tr, when non-nil (observer attached), receives one obs.Event per
	// comparison. The tracer is internally synchronised.
	tr *obs.Tracer

	// phase distinguishes bootstrap-phase oracle calls from run-phase
	// ones for the phase-labelled call counters and trace events. Atomic,
	// since tracing reads it and GreedyLandmarks sets it without the lock.
	phase atomic.Int32 // phaseRun | phaseBootstrap

	// schemeName labels this session's instruments and trace events.
	schemeName string

	// observer, when set by WithObserver, supplies the shared registry
	// and optional tracer this session reports into.
	observer *obs.Observer

	// ready, when non-nil, reports whether the fallible oracle is
	// currently willing to attempt backend calls (circuit breaker not
	// open); bounds-only answers given while !ready() are counted as
	// DegradedAnswers.
	ready func() bool

	// oracleErr latches the first failed resolution (see OracleErr): once
	// set, answers produced by the legacy infallible methods may be
	// best-effort estimates rather than exact.
	oracleErr error

	// sharesGraph records whether b reads s.g directly (SPLUB/Tri), in
	// which case AddEdge already updated it and Update must not be
	// re-invoked with a duplicate.
	sharesGraph bool

	// store, when attached, persists resolutions across runs.
	store    *cachestore.Store
	storeErr error
	// hold, non-nil only while a bootstrap runs with a store attached,
	// holds its resolutions until they are written in one write (see
	// persistResolution and flushHold).
	hold []cachestore.Record

	// slack, when active, declares the oracle a near-metric and widens
	// every derived bound interval accordingly (see SlackPolicy and
	// DESIGN.md §12).
	slack SlackPolicy

	// auditor, when attached, checks every resolution against the
	// triangles it closes on the known-edge graph and feeds Auto slack.
	auditor *metric.Auditor
}

// SharedSession is Session, which is safe for concurrent use. The alias
// is kept only for cmd/proxload, a separate module that still names it;
// it goes with that module's next change (ROADMAP item 8).
type SharedSession = Session

// Share returns s. Like SharedSession, it is kept only for cmd/proxload.
func Share(s *Session) *Session { return s }

// Option configures a Session.
type Option func(*Session)

// WithMaxDistance sets the a-priori cap on any distance (default 1, the
// paper's normalised setting).
func WithMaxDistance(d float64) Option {
	return func(s *Session) { s.maxDist = d }
}

// WithObserver attaches an observability surface to the session: its
// counters are linked to o.Registry's series (labelled with the scheme
// name, so a series sums every session using the same registry and
// scheme), oracle round-trips are timed into the latency histogram, and
// — if o.Tracer is non-nil — every comparison emits one obs.Event
// recording how it was settled and the bound gap that forced any oracle
// fallback. Stats counts this session's events either way; without this
// option only exposition, timing and tracing are off.
//
// Observation is strictly write-only: no bound decision ever reads an
// instrument, so an observed run computes exactly what an unobserved run
// does (DESIGN.md §8).
func WithObserver(o *obs.Observer) Option {
	return func(s *Session) { s.observer = o }
}

// Session phases for the phase-labelled oracle-call counters.
const (
	phaseRun int32 = iota
	phaseBootstrap
)

// phaseName returns the obs label value for the current phase.
func (s *Session) phaseName() string {
	if s.phase.Load() == phaseBootstrap {
		return obs.PhaseBootstrap
	}
	return obs.PhaseRun
}

// callsCounter returns the oracle-call counter for the current phase.
func (s *Session) callsCounter() *obs.Counter {
	if s.phase.Load() == phaseBootstrap {
		return &s.ins.BootstrapCalls
	}
	return &s.ins.OracleCalls
}

// traceCmp emits one comparison event when a tracer is attached. For
// two-term comparisons (Less) k and l identify the second distance; the
// single-term shapes pass k = l = -1. The bare resolution behind Dist
// (opDist) is not a comparison and emits nothing.
func (s *Session) traceCmp(op string, i, j, k, l int, outcome string, gap float64, latency time.Duration) {
	if s.tr == nil || op == opDist {
		return
	}
	s.tr.Record(obs.Event{
		Op: op, Scheme: s.schemeName, Phase: s.phaseName(),
		I: i, J: j, K: k, L: l,
		Outcome: outcome, Gap: gap, LatencyNs: int64(latency),
	})
}

// traceStart returns the start time for a comparison's oracle work, or
// the zero time when tracing is off (so untraced sessions never read the
// clock here).
func (s *Session) traceStart() time.Time {
	if s.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// traceSince converts a traceStart mark into the latency to record.
func (s *Session) traceSince(t0 time.Time) time.Duration {
	if s.tr == nil || t0.IsZero() {
		return 0
	}
	return time.Since(t0)
}

// Scheme selects a bound scheme for NewSession.
type Scheme int

// The available schemes. SchemeNoop recovers the unmodified algorithm.
const (
	SchemeNoop Scheme = iota
	SchemeSPLUB
	SchemeTri
	SchemeADM
	SchemeLAESA
	SchemeTLAESA
	SchemeDFT
	// SchemeHybrid asks Tri first and escalates to SPLUB only when the
	// triangle interval is loose (DESIGN.md §9 ablation).
	SchemeHybrid
)

// String returns the scheme name used in experiment reports.
func (sc Scheme) String() string {
	switch sc {
	case SchemeNoop:
		return "noop"
	case SchemeSPLUB:
		return "splub"
	case SchemeTri:
		return "tri"
	case SchemeADM:
		return "adm"
	case SchemeLAESA:
		return "laesa"
	case SchemeTLAESA:
		return "tlaesa"
	case SchemeDFT:
		return "dft"
	case SchemeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("scheme(%d)", int(sc))
	}
}

// NewSession builds a Session over the oracle with the given scheme.
// Landmark schemes (LAESA/TLAESA) require a prior choice of landmarks; use
// NewSessionWithLandmarks for those, or Bootstrap afterwards.
func NewSession(oracle *metric.Oracle, scheme Scheme, opts ...Option) *Session {
	return NewSessionWithLandmarks(oracle, scheme, nil, opts...)
}

// NewSessionWithLandmarks builds a Session whose landmark-based schemes use
// the given landmark set. For non-landmark schemes the set is ignored by
// the bounder but still usable via Bootstrap.
func NewSessionWithLandmarks(oracle *metric.Oracle, scheme Scheme, landmarks []int, opts ...Option) *Session {
	return NewFallibleSessionWithLandmarks(oracle, scheme, landmarks, opts...)
}

// NewFallibleSession builds a Session over a fallible, context-aware
// oracle — typically a resilient.Oracle wrapping a remote backend. The
// error-propagating methods (DistErr, LessErr, …) surface resolution
// failures; the legacy infallible methods degrade to best-effort
// estimates and latch OracleErr instead. An in-process *metric.Oracle is
// a valid argument (it never fails), which is exactly how the legacy
// constructors are implemented.
func NewFallibleSession(fo metric.FallibleOracle, scheme Scheme, opts ...Option) *Session {
	return NewFallibleSessionWithLandmarks(fo, scheme, nil, opts...)
}

// NewFallibleSessionWithLandmarks is NewFallibleSession with an explicit
// landmark set for the landmark-based schemes.
func NewFallibleSessionWithLandmarks(fo metric.FallibleOracle, scheme Scheme, landmarks []int, opts ...Option) *Session {
	n := fo.Len()
	s := &Session{
		fo:       fo,
		g:        pgraph.New(n),
		maxDist:  1,
		inflight: make([]claimed, 0, 8), // room for 8 concurrent resolutions
	}
	if r, ok := fo.(interface{ Ready() bool }); ok {
		s.ready = r.Ready
	}
	for _, o := range opts {
		o(s)
	}
	if err := SlackSupported(s.slack, scheme); err != nil {
		panic(err.Error())
	}
	if s.slack.Auto && s.auditor == nil {
		// Auto slack needs a margin source; give the session its own
		// auditor when the caller did not share one.
		s.auditor = metric.NewAuditor(0)
	}
	switch scheme {
	case SchemeNoop:
		s.b = bounds.NewNoop(s.maxDist)
	case SchemeSPLUB:
		s.b = bounds.NewSPLUB(s.g, s.maxDist)
		s.sharesGraph = true
	case SchemeTri:
		s.b = bounds.NewTriRelaxed(s.g, s.maxDist, max(s.slack.Ratio, 1))
		s.sharesGraph = true
	case SchemeADM:
		s.b = bounds.NewADM(n, s.maxDist)
	case SchemeLAESA:
		s.b = bounds.NewLAESA(n, landmarks, s.maxDist)
	case SchemeTLAESA:
		s.b = bounds.NewTLAESA(n, landmarks, s.maxDist)
	case SchemeDFT:
		dft := bounds.NewDFT(n, s.maxDist)
		s.b = dft
		s.cmp = dft
	case SchemeHybrid:
		// Both sides read the shared session graph; escalate when the
		// triangle interval is wider than 10% of the distance cap.
		s.b = bounds.NewHybrid(
			bounds.NewTri(s.g, s.maxDist),
			bounds.NewSPLUB(s.g, s.maxDist),
			s.maxDist/10,
		)
		s.sharesGraph = true
	default:
		panic(fmt.Sprintf("core: unknown scheme %v", scheme))
	}
	s.schemeName = scheme.String()
	var reg *obs.Registry
	if s.observer != nil {
		reg = s.observer.Registry
		s.tr = s.observer.Tracer
	}
	s.ins = obs.NewSessionInstruments(reg, s.schemeName)
	if s.slackAdditive() && s.ins.SlackEps != nil {
		s.ins.SlackEps.Set(s.slackEps())
	}
	return s
}

// N returns the number of objects.
func (s *Session) N() int { return s.g.N() } // immutable, no lock

// Stats returns a snapshot of the session's instruments. When the oracle
// is a resilient policy wrapper (anything exposing PolicyCounters), the
// policy-layer counters (Retries, Timeouts, BreakerOpens) are mirrored
// into the returned snapshot.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		OracleCalls:         s.ins.OracleCalls.Value() + s.ins.BootstrapCalls.Value(),
		BootstrapCalls:      s.ins.BootstrapCalls.Value(),
		BoundProbes:         s.ins.BoundProbes.Value(),
		SavedComparisons:    s.ins.SavedComparisons.Value(),
		ResolvedComparisons: s.ins.ResolvedComparisons.Value(),
		CacheHits:           s.ins.CacheHits.Value(),
		DegradedAnswers:     s.ins.DegradedAnswers.Value(),
		StoreErrors:         s.ins.StoreErrors.Value(),
		SlackResolved:       s.ins.SlackResolved.Value(),
	}
	if s.auditor != nil {
		st.Violations = s.auditor.Violations()
	}
	if pc, ok := s.fo.(interface {
		PolicyCounters() (retries, timeouts, breakerOpens int64)
	}); ok {
		st.Retries, st.Timeouts, st.BreakerOpens = pc.PolicyCounters()
	}
	return st
}

// Graph exposes the partial graph of resolved distances, for
// single-goroutine inspection only: it is read without the session lock,
// so no other goroutine may use the session meanwhile.
func (s *Session) Graph() *pgraph.Graph { return s.g }

// Bounder returns the active bound scheme, for single-goroutine
// inspection only, like Graph.
func (s *Session) Bounder() bounds.Bounder { return s.b }

// MaxDistance returns the configured distance cap.
func (s *Session) MaxDistance() float64 { return s.maxDist } // immutable, no lock

// Known reports whether the pair is already resolved, without any oracle
// call.
func (s *Session) Known(i, j int) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.Weight(i, j)
}

// Dist returns the exact distance between i and j, calling the oracle only
// if the pair has not been resolved before. The resolution is fed to the
// bound scheme (the UPDATE PROBLEM).
//
// If the resolution fails (fallible oracle exhausted or breaker open),
// Dist degrades: it latches OracleErr, counts a DegradedAnswer, and
// returns the midpoint of the current bounds as a best-effort estimate.
// The estimate is never committed to the graph or the bound scheme, so
// the session's soundness invariants survive; use DistErr when the caller
// needs to distinguish exact from estimated.
func (s *Session) Dist(i, j int) float64 {
	d, _, _ := s.degrade(opDist, i, j, -1, -1, 0)
	return d
}

// DistErr is Dist with error propagation: it returns the exact distance,
// or a non-nil error wrapping ErrOracleUnavailable when the resolution
// failed. It makes at most one oracle call per pair across all
// goroutines, with the lock released for the round-trip. A failed
// attempt is shared with every goroutine waiting on it but commits
// nothing, so a later call can retry the pair.
func (s *Session) DistErr(i, j int) (float64, error) {
	s.mu.Lock()
	d, wait, own := s.claim(i, j)
	s.mu.Unlock()
	return s.settle(i, j, d, wait, own)
}

// claim looks the pair up under the lock. A resolved pair (or i == j)
// returns its distance. A pair another goroutine is resolving returns
// that goroutine's flight to wait on. Otherwise the caller owns the pair:
// own is true and the pair is registered in flight, so the caller must
// settle it.
func (s *Session) claim(i, j int) (d float64, wait *flight, own bool) {
	if i == j {
		return 0, nil, false
	}
	if w, ok := s.g.Weight(i, j); ok {
		return w, nil, false
	}
	key := pgraph.Key(i, j)
	if f, busy := s.join(key); busy {
		return 0, f, false
	}
	s.inflight = append(s.inflight, claimed{key: key})
	return 0, nil, true
}

// join returns the flight of a pair some goroutine is resolving,
// allocating it for the first waiter; busy is false when nobody is. The
// caller holds the lock.
func (s *Session) join(key int64) (f *flight, busy bool) {
	for x := range s.inflight {
		if c := &s.inflight[x]; c.key == key {
			if c.f == nil {
				c.f = newFlight()
			}
			return c.f, true
		}
	}
	return nil, false
}

// release drops the claim on key and returns its flight, nil when no
// goroutine waited. The caller holds the lock.
func (s *Session) release(key int64) *flight {
	for x, c := range s.inflight {
		if c.key == key {
			last := len(s.inflight) - 1
			s.inflight[x], s.inflight[last] = s.inflight[last], claimed{}
			s.inflight = s.inflight[:last]
			return c.f
		}
	}
	return nil
}

// settle finishes a claim with the lock released. A resolved claim
// returns its distance, and a waiter returns its flight's result. The
// owner makes the one oracle call, commits it (or latches its failure)
// under the lock, and then wakes the waiters, if any arrived.
func (s *Session) settle(i, j int, d float64, wait *flight, own bool) (float64, error) {
	if wait != nil {
		return wait.wait()
	}
	if !own {
		return d, nil
	}
	d, err := s.oracleDistanceErr(i, j)
	s.mu.Lock()
	if err != nil {
		s.noteOracleErr(err)
	} else {
		s.commitResolution(i, j, d)
	}
	f := s.release(pgraph.Key(i, j))
	s.mu.Unlock()
	if f != nil {
		f.finish(d, err)
	}
	return d, err
}

// oracleDistanceErr performs the raw oracle round-trip with no session
// bookkeeping or mutation. It is the only Session path that touches the
// oracle, split from commitResolution so the caller can release the lock
// around the call (which is also why it must not write any lock-protected
// session state — the caller owns error latching; the latency histogram
// is an atomic instrument, so observing into it here is safe without the
// lock).
func (s *Session) oracleDistanceErr(i, j int) (float64, error) {
	lat := s.ins.OracleLatency // nil unless observed: no clock reads
	var t0 time.Time
	if lat != nil {
		t0 = time.Now()
	}
	d, err := s.fo.DistanceCtx(context.Background(), i, j)
	if lat != nil {
		// Failed round-trips are recorded too: the histogram measures wall
		// clock paid at the oracle, including retry/backoff in the
		// resilient layer below.
		lat.Observe(int64(time.Since(t0)))
	}
	if err != nil {
		return 0, fmt.Errorf("%w: dist(%d,%d): %w", ErrOracleUnavailable, i, j, err)
	}
	return d, nil
}

// commitResolution records a freshly resolved distance: statistics, the
// partial graph, the bound scheme, and the attached store. The caller
// holds the lock and must ensure the pair is not already recorded (pgraph
// panics on conflicting weights, and a duplicate would double-count
// OracleCalls and feed the bound scheme the pair twice).
func (s *Session) commitResolution(i, j int, d float64) {
	s.callsCounter().Inc()
	s.record(i, j, d)
	s.persistResolution(i, j, d)
}

func (s *Session) record(i, j int, d float64) {
	if s.auditor != nil {
		// Audit before AddEdge: auditTriangles borrows adjacency rows,
		// and the commit below may shift them or move them to fresh
		// slices.
		s.auditTriangles(i, j, d)
		if s.slack.Auto && s.ins.SlackEps != nil {
			// Publish the possibly escalated ε; in-process bounds are
			// derived fresh per query, so escalation needs no cache
			// invalidation here (remote mirrors watch this gauge's value
			// through the wire instead).
			s.ins.SlackEps.Set(s.slackEps())
		}
	}
	s.g.AddEdge(i, j, d)
	if !s.sharesGraph {
		// SPLUB/Tri read the session graph, which the AddEdge above
		// already updated.
		s.b.Update(i, j, d)
	}
}

// Bounds returns the current lower and upper bounds for (i, j) without any
// oracle call. Resolved pairs return the exact value twice. Under an
// active additive slack policy the derived interval is widened to
// [lb−ε, ub+ε] (self-pairs and resolved pairs stay exact: oracle values
// are not derived, so the near-metric contract does not touch them).
func (s *Session) Bounds(i, j int) (lb, ub float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bounds(i, j)
}

// bounds is Bounds with the lock held.
func (s *Session) bounds(i, j int) (lb, ub float64) {
	if i == j {
		return 0, 0
	}
	if w, ok := s.g.Weight(i, j); ok {
		return w, w
	}
	s.ins.BoundProbes.Inc()
	lb, ub = s.b.Bounds(i, j)
	if s.slackAdditive() {
		if eps := s.slackEps(); eps > 0 {
			lb, ub = s.slack.Relax(lb, ub, eps, s.maxDist)
		}
	}
	return lb, ub
}

// BoundsBatch answers one bound query per (is[x], js[x]) pair into
// lb[x]/ub[x], with no oracle calls — exactly the intervals Bounds would
// return pair by pair, including the self-pair and resolved-pair exact
// answers, and the same BoundProbes count. When the active scheme
// implements bounds.BatchBounder (Tri does), the whole batch runs in one
// pass over the scheme's state, in input order, and the scheme reports
// how many pairs it derived; other schemes fall back to a per-pair loop.
// All four slices must share a length. This is the entry point the
// service's /batch endpoint, the remote client's prefetch and the
// in-process kNN row scan drive. The batch takes the lock once: no
// oracle call is made, so holding it for the whole batch is cheap.
func (s *Session) BoundsBatch(is, js []int, lb, ub []float64) {
	if len(is) != len(js) || len(is) != len(lb) || len(is) != len(ub) {
		panic("core: BoundsBatch slice lengths differ")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bb, ok := s.b.(bounds.BatchBounder)
	if !ok {
		for q := range is {
			lb[q], ub[q] = s.bounds(is[q], js[q])
		}
		return
	}
	s.ins.BoundProbes.Add(int64(bb.BoundsBatch(is, js, lb, ub)))
	if s.slackAdditive() {
		if eps := s.slackEps(); eps > 0 {
			// Relax exactly the derived intervals, so self-pairs and
			// resolved pairs stay exact on the batch path too.
			for q := range is {
				if is[q] != js[q] && !s.g.Known(is[q], js[q]) {
					lb[q], ub[q] = s.slack.Relax(lb[q], ub[q], eps, s.maxDist)
				}
			}
		}
	}
}

// Less reports whether dist(i,j) < dist(k,l) — the paper's canonical IF
// statement — resolving distances only when the bound scheme (and
// comparator, if any) cannot decide.
//
// When a needed resolution fails, Less degrades like Dist: OracleErr is
// latched, a DegradedAnswer is counted, and the comparison is answered
// from bounds-midpoint estimates. Use LessErr or LessOutcome to observe
// failures per call.
func (s *Session) Less(i, j, k, l int) bool {
	_, less, _ := s.degrade(obs.OpLess, i, j, k, l, 0)
	return less
}

// LessErr is Less with error propagation: it reports dist(i,j) <
// dist(k,l), or a non-nil error wrapping ErrOracleUnavailable when the
// bounds were inconclusive and a needed resolution failed.
func (s *Session) LessErr(i, j, k, l int) (bool, error) {
	_, less, _, err := s.compare(obs.OpLess, i, j, k, l, 0, false)
	return less, err
}

// LessOutcome is Less plus a per-call outcome report. Unlike LessErr it
// never fails: when a needed resolution errors it answers from bounds
// midpoints and reports OutcomeUnavailable (counting a DegradedAnswer),
// which is exactly the legacy Less behaviour made observable.
func (s *Session) LessOutcome(i, j, k, l int) (bool, Outcome) {
	_, less, out := s.degrade(obs.OpLess, i, j, k, l, 0)
	return less, out
}

// LessThan reports whether dist(i,j) < c, resolving the distance only when
// the bounds are inconclusive. On a failed resolution it degrades exactly
// like Less; use LessThanErr to observe failures.
func (s *Session) LessThan(i, j int, c float64) bool {
	_, less, _ := s.degrade(obs.OpLessThan, i, j, -1, -1, c)
	return less
}

// LessThanErr is LessThan with error propagation; see LessErr.
func (s *Session) LessThanErr(i, j int, c float64) (bool, error) {
	_, less, _, err := s.compare(obs.OpLessThan, i, j, -1, -1, c, false)
	return less, err
}

// DistIfLess is the value-needed variant of LessThan used by algorithms
// that must store the distance when the comparison succeeds (Prim's key
// update, PAM's nearest-medoid assignment). If dist(i,j) ≥ c can be proven
// from bounds, it returns (0, false) with no oracle call; otherwise it
// resolves the distance and reports whether it is below c. On a failed
// resolution it degrades like Dist (the returned value is an uncommitted
// estimate); use DistIfLessErr to observe failures.
func (s *Session) DistIfLess(i, j int, c float64) (float64, bool) {
	d, less, _ := s.degrade(obs.OpDistIfLess, i, j, -1, -1, c)
	return d, less
}

// DistIfLessErr is DistIfLess with error propagation; see LessErr.
func (s *Session) DistIfLessErr(i, j int, c float64) (float64, bool, error) {
	d, less, _, err := s.compare(obs.OpDistIfLess, i, j, -1, -1, c, false)
	return d, less, err
}

// opDist names the bare resolution behind Dist for the comparison tail:
// nothing to decide, and no trace event (Dist is not an IF statement).
const opDist = "dist"

// compare is Session's one comparison tail: every exported comparison
// method adapts it, the degrading ones through degrade. op names the
// shape by its trace op: obs.OpLess compares dist(i,j) with dist(k,l);
// obs.OpLessThan and obs.OpDistIfLess compare dist(i,j) with c and pass
// k = l = −1; opDist only resolves dist(i,j). The decision and the claim
// on dist(i,j) share one lock hold; what decide cannot settle is resolved
// with the lock released, single-flight, and traced by noteResolution. A
// failed resolution returns OutcomeUnavailable and its error; degrade
// marks a caller that will answer with an estimate instead.
func (s *Session) compare(op string, i, j, k, l int, c float64, degrade bool) (d float64, less bool, out Outcome, err error) {
	var gap float64
	s.mu.Lock()
	if op != opDist {
		if d, less, out, gap = s.decide(op, i, j, k, l, c); out != OutcomeUndecided {
			s.mu.Unlock()
			return d, less, out, nil
		}
	}
	d, wait, own := s.claim(i, j)
	s.mu.Unlock()
	t0 := s.traceStart()
	d, err = s.settle(i, j, d, wait, own)
	if err == nil && op == obs.OpLess {
		c, err = s.DistErr(k, l)
	}
	s.noteResolution(op, i, j, k, l, gap, t0, err, degrade)
	if err != nil {
		return 0, false, OutcomeUnavailable, err
	}
	return d, d < c, OutcomeExact, nil
}

// degrade is compare for the degrading methods (Dist, Less, LessOutcome,
// LessThan, DistIfLess) and the one place a Session answers from
// estimates: when a needed resolution failed, it compares bounds
// midpoints instead, read under the lock. OracleErr was latched by the
// failure, and the estimates are never committed, so they cannot poison
// later exact answers.
func (s *Session) degrade(op string, i, j, k, l int, c float64) (float64, bool, Outcome) {
	d, less, out, err := s.compare(op, i, j, k, l, c, true)
	if err != nil {
		s.mu.Lock()
		d = s.estimate(i, j)
		if op == obs.OpLess {
			c = s.estimate(k, l)
		}
		s.mu.Unlock()
		less = d < c
	}
	return d, less, out
}

// decide is the bookkeeping half of a comparison: it tries to settle it
// from cached distances, the bounds kernel and the comparator alone,
// counting and tracing what it settles. DistIfLess needs the value, so
// only a "not less" verdict settles it. OutcomeUndecided means the caller
// must resolve and compare; ResolvedComparisons has been counted, and gap
// reports how far the bounds were from deciding (the "why did we pay?"
// figure): the overlap of the two intervals for Less, ub − lb for
// LessThan, and min(c, ub) − lb for DistIfLess. decide runs with the lock
// held and never touches the oracle.
//
// A DistIfLess whose threshold c exceeds the distance cap (nsw's seeds
// and beam fill, a kNN row's first k pops and TSP's first candidate ask
// 2·maxDist, Prim's unset keys +Inf) makes no bound query: every
// scheme's derived interval ends in clamp or is [0, maxDist], and slack
// relaxation keeps it there, so lb ≤ maxDist < c and "not less" is out
// of reach; on data the cap covers, DFT's LP cannot prove d ≥ c either.
// Its gap is the a-priori interval's, maxDist.
func (s *Session) decide(op string, i, j, k, l int, c float64) (d float64, less bool, out Outcome, gap float64) {
	w, ok := s.g.Weight(i, j)
	rhs := c
	if ok && op == obs.OpLess {
		rhs, ok = s.g.Weight(k, l)
	}
	if ok {
		s.ins.CacheHits.Inc()
		s.traceCmp(op, i, j, k, l, obs.OutcomeCache, 0, 0)
		return w, w < rhs, OutcomeExact, 0
	}
	if op == obs.OpDistIfLess && c > s.maxDist {
		s.ins.ResolvedComparisons.Inc()
		return 0, false, OutcomeUndecided, s.maxDist
	}
	lb, ub := s.bounds(i, j)
	lb2, ub2 := c, c // a constant is a collapsed interval
	if op == obs.OpLess {
		lb2, ub2 = s.bounds(k, l)
	}
	less, decided := bounds.DecideLess(lb, ub, lb2, ub2)
	if op == obs.OpDistIfLess {
		decided = decided && !less
	}
	if decided {
		s.noteSaved()
		out, oc := s.boundsOutcome()
		s.traceCmp(op, i, j, k, l, oc, 0, 0)
		return 0, less, out, 0
	}
	if s.cmp != nil {
		if less, decided = s.prove(op, i, j, k, l, c); decided {
			s.noteSaved()
			s.traceCmp(op, i, j, k, l, obs.OutcomeBounds, 0, 0)
			return 0, less, OutcomeBounds, 0
		}
	}
	s.ins.ResolvedComparisons.Inc()
	switch op {
	case obs.OpLess:
		gap = math.Min(ub, ub2) - math.Max(lb, lb2)
	case obs.OpLessThan:
		gap = ub - lb
	case obs.OpDistIfLess:
		gap = math.Min(c, ub) - lb
	}
	return 0, false, OutcomeUndecided, gap
}

// prove asks the installed comparator (DFT) to settle what the intervals
// could not. Its Prove* methods are one-sided, so each verdict needs its
// own proof; DistIfLess only ever takes "not less".
func (s *Session) prove(op string, i, j, k, l int, c float64) (less, decided bool) {
	switch {
	case op == obs.OpLess:
		if s.cmp.ProveLess(i, j, k, l) {
			return true, true
		}
		return false, s.cmp.ProveLess(k, l, i, j) // dist(k,l) < dist(i,j): not less
	case op == obs.OpLessThan && s.cmp.ProveLessC(i, j, c):
		return true, true
	}
	return false, s.cmp.ProveGEC(i, j, c)
}

// noteSaved counts a comparison settled from bounds (or the comparator)
// with no oracle call. While the fallible oracle reports itself
// unavailable (circuit breaker open), such answers also count as
// DegradedAnswers: they are still exact — bounds are sound — but they are
// the only answers the session can currently produce exactly.
func (s *Session) noteSaved() {
	s.ins.SavedComparisons.Inc()
	if s.ready != nil && !s.ready() {
		s.ins.DegradedAnswers.Inc()
	}
}

// noteResolution ends a comparison the oracle had to answer: it traces
// the outcome with the bound gap that forced the call and the time since
// t0, and counts a DegradedAnswer when the resolution failed for a caller
// that will answer with an estimate (degrade) rather than the error. It
// writes only atomic instruments and the synchronised tracer, so it runs
// without the lock.
func (s *Session) noteResolution(op string, i, j, k, l int, gap float64, t0 time.Time, err error, degrade bool) {
	oc := obs.OutcomeOracle
	if err != nil {
		oc = obs.OutcomeError
		if degrade {
			s.ins.DegradedAnswers.Inc()
			oc = obs.OutcomeDegraded
		}
	}
	s.traceCmp(op, i, j, k, l, oc, gap, s.traceSince(t0))
}

// Bootstrap resolves all landmark-to-object distances through the oracle
// (feeding the bound scheme) and returns the number of calls spent — the
// Bootstrap column of the paper's tables. The same routine initialises the
// baselines (LAESA/TLAESA) and the bootstrapped Tri Scheme.
//
// On a fallible oracle, Bootstrap aborts at the first failed resolution
// (latching OracleErr) rather than feeding estimates into the bound
// tables: the landmark schemes treat bootstrap rows as exact, so a
// best-effort value there would be unsound. The partially filled tables
// remain valid — LAESA/TLAESA skip unresolved (NaN-sentinel) entries.
// Use BootstrapErr to observe the abort.
func (s *Session) Bootstrap(landmarks []int) int64 {
	spent, _ := s.BootstrapErr(landmarks)
	return spent
}

// bootstrapAbort carries a resolution failure out of a Bootstrapper's
// callback, whose signature cannot return errors.
type bootstrapAbort struct{ err error }

// BootstrapErr is Bootstrap with error propagation: it returns the calls
// spent before the first failed resolution, and that failure (nil when
// the bootstrap completed).
//
// Unlike the comparisons, a bootstrap holds the lock across its oracle
// calls, because a Bootstrapper (TLAESA) builds its pivot tree between
// resolutions. Other goroutines' comparisons wait for it, and a pair they
// already have in flight is waited for rather than resolved twice.
func (s *Session) BootstrapErr(landmarks []int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//proxlint:allow lockheldoracle -- TLAESA builds its pivot tree between bootstrap resolutions, so the scheme stays locked throughout; on a live session (the service's /bootstrap) comparisons wait for the bootstrap, and it waits for their in-flight pairs instead of resolving them twice
	return s.bootstrap(landmarks)
}

// bootstrap is BootstrapErr with the lock held. A pair another goroutine
// is resolving is waited for, with the lock released only for the wait,
// and the phase set back to run meanwhile: that call belongs to the
// goroutine that made it, so it counts in the run phase and not in spent.
// With a store attached, the resolutions are written holdChunk at a
// time (persistResolution), and what is held is written before the wait
// and on every exit, so the store holds every committed resolution, in
// commit order, whenever the lock is free.
func (s *Session) bootstrap(landmarks []int) (spent int64, err error) {
	// Flip the phase so commitResolution counts into the
	// phase=bootstrap series.
	s.phase.Store(phaseBootstrap)
	if s.store != nil {
		s.hold = make([]cachestore.Record, 0, holdChunk)
	}
	defer func() {
		// Every exit, a completion, an abort or a panic, writes what the
		// bootstrap still holds before the caller releases the lock.
		s.flushHold()
		s.hold = nil
		if r := recover(); r != nil {
			a, ok := r.(bootstrapAbort)
			if !ok {
				panic(r)
			}
			err = a.err
		}
		s.phase.Store(phaseRun)
	}()
	resolve := func(i, j int) float64 {
		if i == j {
			return 0
		}
		if w, ok := s.g.Weight(i, j); ok {
			return w
		}
		if f, busy := s.join(pgraph.Key(i, j)); busy {
			// Write what is held before letting go of the lock, and
			// put the hold aside: what other goroutines commit
			// meanwhile they write themselves.
			s.flushHold()
			hold := s.hold
			s.hold = nil
			s.phase.Store(phaseRun)
			s.mu.Unlock()
			d, werr := f.wait()
			s.mu.Lock()
			s.phase.Store(phaseBootstrap)
			s.hold = hold
			if werr != nil {
				panic(bootstrapAbort{werr})
			}
			return d
		}
		d, derr := s.oracleDistanceErr(i, j)
		if derr != nil {
			s.noteOracleErr(derr)
			panic(bootstrapAbort{derr})
		}
		s.commitResolution(i, j, d)
		spent++
		return d
	}
	if b, ok := s.b.(bounds.Bootstrapper); ok {
		b.Bootstrap(resolve, landmarks)
	} else {
		for _, e := range bounds.EdgesForBootstrap(s.N(), landmarks) {
			resolve(e.U, e.V)
		}
	}
	return spent, nil
}

// PickLandmarks selects k well-separated landmarks with the classic greedy
// max-min rule used by LAESA's base-prototype selection, spending (k−1)·n
// oracle-call-free selections: the first landmark is arbitrary and
// subsequent ones maximise the minimum distance to those already chosen,
// using distances that Bootstrap will resolve anyway. To avoid spending
// extra calls before bootstrap, the greedy selection runs on a cheap
// surrogate: a deterministic pseudo-random spread seeded by seed.
//
// The paper treats landmark choice as an input (and shows in Figure 5b
// that no universally good count exists); this helper simply provides a
// reproducible default.
func PickLandmarks(n, k int, seed int64) []int {
	if k >= n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	return perm[:k]
}

// GreedyLandmarks picks k landmarks with the true LAESA max-min rule,
// spending oracle calls ((k−1)·n in the worst case) through the session so
// the resolved rows double as bootstrap. It returns the landmark set; the
// calls it makes are indistinguishable from Bootstrap calls in the stats.
// It is a setup step: the phase label is session-wide, so calls other
// goroutines make while it runs count as bootstrap calls too.
func (s *Session) GreedyLandmarks(k int) []int {
	n := s.N()
	if k >= n {
		k = n
	}
	s.phase.Store(phaseBootstrap)
	defer s.phase.Store(phaseRun)
	landmarks := make([]int, 0, k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = s.maxDist * 2
	}
	// selected[x] replaces a linear scan of the landmark slice inside the
	// selection loop, turning the selection from O(n·k²) into O(n·k).
	selected := make([]bool, n)
	cur := 0 // arbitrary first landmark
	landmarks = append(landmarks, cur)
	selected[cur] = true
	for len(landmarks) < k {
		far, farD := -1, -1.0
		for x := 0; x < n; x++ {
			if x == cur {
				minDist[x] = 0
				continue
			}
			if d := s.Dist(cur, x); d < minDist[x] {
				minDist[x] = d
			}
			if minDist[x] > farD && !selected[x] {
				far, farD = x, minDist[x]
			}
		}
		landmarks = append(landmarks, far)
		selected[far] = true
		cur = far
	}
	// Finish the final landmark's row so the bootstrap is complete.
	for x := 0; x < n; x++ {
		if x != cur {
			s.Dist(cur, x)
		}
	}
	return landmarks
}
