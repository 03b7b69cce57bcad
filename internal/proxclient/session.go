package proxclient

import (
	"context"
	"net/http"
	"sync"

	"metricprox/internal/bounds"
	"metricprox/internal/core"
	"metricprox/internal/service/api"
)

// SessionOptions configures CreateSession.
type SessionOptions struct {
	// Landmarks is the bootstrap landmark count; 0 means the server default
	// (log2 n).
	Landmarks int
	// Seed drives the server-side landmark choice.
	Seed int64
	// Bootstrap resolves the landmark rows up front, server-side.
	Bootstrap bool
	// NoCache disables the local known-distance mirror. Every primitive
	// then round-trips. Exists so the ext11 experiment can measure the
	// naive client; production callers should leave it false.
	NoCache bool
	// NoPrefetch makes PrefetchBounds a no-op; see NoCache.
	NoPrefetch bool
	// SlackEps declares the daemon's oracle a near-metric with additive
	// margin ε (server-side core.SlackPolicy.Additive). Only
	// single-triangle schemes accept it.
	SlackEps float64
	// SlackRatio declares a multiplicative factor ρ ≥ 1; 0 means none.
	SlackRatio float64
	// SlackAuto lets the server grow ε as its auditor observes larger
	// margins; the mirror watches the served ε and drops cached intervals
	// on escalation.
	SlackAuto bool
	// Audit attaches a server-side violation auditor without slack
	// (strict mode).
	Audit bool
}

// Session is a remote session hosted by metricproxd, shaped like an
// in-process session: it implements core.View, core.FallibleView and
// core.BoundsPrefetcher, so the prox builders run against it unmodified.
//
// Correctness model: the server session is the source of truth; the client
// keeps a mirror of facts it has already paid round-trips for — resolved
// distances and the loosest-known interval bounds. A locally decided
// comparison uses only facts that are permanently true (a resolved
// distance never changes; server bounds only tighten, so a cached bound is
// a stale-but-sound bound). Decisions made from sound bounds are the same
// decisions the server would make, which is why remote runs stay
// bit-identical to in-process runs.
//
// The mutex guards only the mirror maps and is never held across an HTTP
// round-trip.
type Session struct {
	c    Caller
	name string
	n    int
	max  float64

	noCache    bool
	noPrefetch bool

	mu        sync.Mutex
	known     map[uint64]float64
	lb, ub    map[uint64]float64
	eps       float64 // high-water slack ε observed in server responses
	oracleErr error
}

// CreateSession creates (or attaches to) the named session on the daemon
// and returns the client-side view of it.
func CreateSession(ctx context.Context, c Caller, name, scheme string, opts SessionOptions) (*Session, error) {
	req := api.CreateSessionRequest{
		Name:       name,
		Scheme:     scheme,
		Landmarks:  opts.Landmarks,
		Seed:       opts.Seed,
		Bootstrap:  opts.Bootstrap,
		SlackEps:   api.WireFloat(opts.SlackEps),
		SlackRatio: api.WireFloat(opts.SlackRatio),
		SlackAuto:  opts.SlackAuto,
		Audit:      opts.Audit,
	}
	var info api.SessionInfo
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &info); err != nil {
		return nil, err
	}
	return &Session{
		c:          c,
		name:       name,
		n:          info.N,
		max:        float64(info.MaxDistance),
		noCache:    opts.NoCache,
		noPrefetch: opts.NoPrefetch,
		known:      make(map[uint64]float64),
		lb:         make(map[uint64]float64),
		ub:         make(map[uint64]float64),
	}, nil
}

// Name returns the session's registry name on the daemon.
func (s *Session) Name() string { return s.name }

// Client returns the transport the session rides on.
func (s *Session) Client() Caller { return s.c }

// pairKey normalises (i, j) to i < j and packs it into one map key.
func pairKey(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// path returns the session-scoped endpoint path.
func (s *Session) path(op string) string {
	return "/v1/sessions/" + s.name + "/" + op
}

// N returns the universe size.
func (s *Session) N() int { return s.n }

// MaxDistance returns the daemon's a-priori distance cap.
func (s *Session) MaxDistance() float64 { return s.max }

// localKnown reads the mirror's resolved distance for (i, j).
func (s *Session) localKnown(i, j int) (float64, bool) {
	if i == j {
		return 0, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.known[pairKey(i, j)]
	return d, ok
}

// localBounds reads the mirror's interval for (i, j); absent entries give
// the trivial [0, MaxDistance] interval.
func (s *Session) localBounds(i, j int) (lb, ub float64) {
	if i == j {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.localBoundsLocked(pairKey(i, j))
}

func (s *Session) localBoundsLocked(key uint64) (lb, ub float64) {
	if d, ok := s.known[key]; ok {
		return d, d
	}
	lb, ub = 0, s.max
	if v, ok := s.lb[key]; ok && v > lb {
		lb = v
	}
	if v, ok := s.ub[key]; ok && v < ub {
		ub = v
	}
	return lb, ub
}

// noteDist commits a server-resolved distance to the mirror.
func (s *Session) noteDist(i, j int, d float64) {
	if s.noCache || i == j {
		return
	}
	s.mu.Lock()
	key := pairKey(i, j)
	s.known[key] = d
	delete(s.lb, key)
	delete(s.ub, key)
	s.mu.Unlock()
}

// noteLowerBound raises the mirror's lower bound for (i, j) — used after
// the server proves dist(i, j) ≥ c.
func (s *Session) noteLowerBound(i, j int, c float64) {
	if s.noCache || i == j {
		return
	}
	s.mu.Lock()
	key := pairKey(i, j)
	if _, ok := s.known[key]; !ok {
		if v, ok := s.lb[key]; !ok || c > v {
			s.lb[key] = c
		}
	}
	s.mu.Unlock()
}

// noteBounds overwrites the mirror's interval with a fresh server
// interval. At a fixed slack ε server bounds only tighten, so replacing
// the cached interval wholesale is sound; under an auto slack policy ε
// itself can grow, at which point older (narrower) cached intervals stop
// being sound for the new contract — every bounds response therefore
// carries the ε it was relaxed by, and the mirror drops all cached
// intervals when it sees ε rise (resolved distances in known are exact
// oracle values and survive the escalation). Detection is lazy — the
// mirror learns of a rise on its next bounds round-trip — which is sound
// for the same reason core's auto mode is: decisions already made used
// the contract as declared at the time, and every later decision uses
// intervals refreshed under the larger ε. A collapsed interval is
// deliberately NOT promoted to a known distance: bound arithmetic can sit
// one ulp away from the resolved value, and the mirror's known map must
// hold exact server resolutions only — bounds are for decisions, never
// for values (the same discipline core.Session keeps).
func (s *Session) noteBounds(i, j int, lb, ub, eps float64) {
	if s.noCache || i == j {
		return
	}
	s.mu.Lock()
	if eps > s.eps {
		s.lb = make(map[uint64]float64)
		s.ub = make(map[uint64]float64)
		s.eps = eps
	}
	key := pairKey(i, j)
	if _, ok := s.known[key]; !ok {
		s.lb[key] = lb
		s.ub[key] = ub
	}
	s.mu.Unlock()
}

// latch records the first remote resolution failure, mirroring
// core.Session's sticky OracleErr.
func (s *Session) latch(err error) {
	s.mu.Lock()
	if s.oracleErr == nil {
		s.oracleErr = err
	}
	s.mu.Unlock()
}

// OracleErr returns the first latched resolution failure, nil while every
// answer so far is exact.
func (s *Session) OracleErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.oracleErr
}

// estimate mirrors core.Session.estimate: the midpoint of the current
// (local) bounds, which degrade falls back to.
func (s *Session) estimate(i, j int) float64 {
	lb, ub := s.localBounds(i, j)
	return (lb + ub) / 2
}

// Known reports a pair resolved in the local mirror. A pair the server
// resolved but this client never asked about reports false — the miss
// falls through to Dist, which returns the identical memoised value, so
// answers are unaffected.
func (s *Session) Known(i, j int) (float64, bool) { return s.localKnown(i, j) }

// Bounds returns interval bounds for (i, j): the mirror's if it has any
// facts, otherwise one round-trip to the server's bounds endpoint (cached
// for next time). The interval may be staler (looser) than the server's
// current one; it is never wrong.
func (s *Session) Bounds(i, j int) (lb, ub float64) {
	if i == j {
		return 0, 0
	}
	if !s.noCache {
		s.mu.Lock()
		key := pairKey(i, j)
		_, haveKnown := s.known[key]
		_, haveLB := s.lb[key]
		_, haveUB := s.ub[key]
		lb, ub = s.localBoundsLocked(key)
		s.mu.Unlock()
		if haveKnown || haveLB || haveUB {
			return lb, ub
		}
	}
	var resp api.BoundsResponse
	err := s.c.do(context.Background(), http.MethodPost, s.path("bounds"), api.PairRequest{I: i, J: j}, &resp)
	if err != nil {
		// Bounds never fails in core; fall back to the trivial interval.
		return 0, s.max
	}
	s.noteBounds(i, j, float64(resp.LB), float64(resp.UB), float64(resp.Eps))
	return float64(resp.LB), float64(resp.UB)
}

// SlackEps returns the highest additive slack ε the server has reported
// in bounds responses so far — 0 for a strict session.
func (s *Session) SlackEps() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eps
}

// DistErr resolves the exact distance, round-tripping only on a mirror
// miss.
func (s *Session) DistErr(i, j int) (float64, error) {
	if d, ok := s.localKnown(i, j); ok {
		return d, nil
	}
	var resp api.DistResponse
	err := s.c.do(context.Background(), http.MethodPost, s.path("dist"), api.PairRequest{I: i, J: j}, &resp)
	if err != nil {
		return 0, err
	}
	d := float64(resp.D)
	s.noteDist(i, j, d)
	return d, nil
}

// Dist is DistErr degraded to the legacy contract: on failure it latches
// OracleErr and returns the bounds-midpoint estimate, like core.Session.
func (s *Session) Dist(i, j int) float64 {
	d, err := s.DistErr(i, j)
	if err != nil {
		d, _ = s.degrade(err, i, j, -1, -1, 0)
	}
	return d
}

// degrade is the legacy contract's answer to a failed remote call and the
// one place this client answers from estimates: it latches err as
// OracleErr and compares the mirror's bounds midpoints — dist(i,j)
// against dist(k,l) when k ≥ 0, against c otherwise. The estimates are
// never committed to the mirror.
func (s *Session) degrade(err error, i, j, k, l int, c float64) (float64, bool) {
	s.latch(err)
	d := s.estimate(i, j)
	if k >= 0 {
		c = s.estimate(k, l)
	}
	return d, d < c
}

// decide settles dist(i,j) against dist(k,l) — or against c when k < 0 —
// from the mirror alone, by the bounds kernel the server session uses.
// OutcomeUndecided means the caller must ask the server.
func (s *Session) decide(i, j, k, l int, c float64) (d float64, less bool, out core.Outcome) {
	d, ok := s.localKnown(i, j)
	rhs := c
	if ok && k >= 0 {
		rhs, ok = s.localKnown(k, l)
	}
	if ok {
		return d, d < rhs, core.OutcomeExact
	}
	lb, ub := s.localBounds(i, j)
	lb2, ub2 := c, c // a constant is a collapsed interval
	if k >= 0 {
		lb2, ub2 = s.localBounds(k, l)
	}
	if less, decided := bounds.DecideLess(lb, ub, lb2, ub2); decided {
		return 0, less, core.OutcomeBounds
	}
	return 0, false, core.OutcomeUndecided
}

// LessErr reports dist(i,j) < dist(k,l), deciding locally when the mirror
// can and round-tripping otherwise.
func (s *Session) LessErr(i, j, k, l int) (bool, error) {
	less, _, err := s.less(i, j, k, l)
	return less, err
}

// less is LessErr plus how the answer was reached: the mirror's outcome
// when it settled the comparison, OutcomeExact for a server answer.
func (s *Session) less(i, j, k, l int) (bool, core.Outcome, error) {
	if _, less, out := s.decide(i, j, k, l, 0); out != core.OutcomeUndecided {
		return less, out, nil
	}
	if i == j || k == l {
		// The comparison endpoint rejects self-pairs; resolve the real
		// pair instead (a self-pair's distance is locally known to be 0).
		d1, err := s.DistErr(i, j)
		var d2 float64
		if err == nil {
			d2, err = s.DistErr(k, l)
		}
		if err != nil {
			return false, core.OutcomeUnavailable, err
		}
		return d1 < d2, core.OutcomeExact, nil
	}
	var resp api.LessResponse
	err := s.c.do(context.Background(), http.MethodPost, s.path("less"),
		api.LessRequest{I: i, J: j, K: k, L: l}, &resp)
	if err != nil {
		return false, core.OutcomeUnavailable, err
	}
	return resp.Less, core.OutcomeExact, nil
}

// LessOutcome is Less plus an outcome report; on a remote failure it
// degrades to comparing bound midpoints, like core.Session.
func (s *Session) LessOutcome(i, j, k, l int) (bool, core.Outcome) {
	less, out, err := s.less(i, j, k, l)
	if err != nil {
		_, less = s.degrade(err, i, j, k, l, 0)
		out = core.OutcomeUnavailable
	}
	return less, out
}

// Less reports dist(i,j) < dist(k,l), degrading like the legacy core
// method on failure.
func (s *Session) Less(i, j, k, l int) bool {
	less, _ := s.LessOutcome(i, j, k, l)
	return less
}

// LessThanErr reports dist(i,j) < c with error propagation.
func (s *Session) LessThanErr(i, j int, c float64) (bool, error) {
	if _, less, out := s.decide(i, j, -1, -1, c); out != core.OutcomeUndecided {
		return less, nil
	}
	var resp api.LessResponse
	err := s.c.do(context.Background(), http.MethodPost, s.path("lessthan"),
		api.LessThanRequest{I: i, J: j, C: api.WireFloat(c)}, &resp)
	if err != nil {
		return false, err
	}
	if !resp.Less {
		s.noteLowerBound(i, j, c)
	}
	return resp.Less, nil
}

// LessThan reports dist(i,j) < c, degrading like the legacy core method on
// failure.
func (s *Session) LessThan(i, j int, c float64) bool {
	less, err := s.LessThanErr(i, j, c)
	if err != nil {
		_, less = s.degrade(err, i, j, -1, -1, c)
	}
	return less
}

// DistIfLessErr resolves dist(i,j) only when it cannot be proved ≥ c,
// with error propagation. A distance the server marks exact (always on
// "less", and on a "not less" for a resolved pair) enters the mirror and
// is returned, as core returns it; an inexact "not less" raises the
// mirror's lower bound to c instead, so repeated probes against
// non-increasing thresholds (Prim's relaxation pattern) stop
// round-tripping.
func (s *Session) DistIfLessErr(i, j int, c float64) (float64, bool, error) {
	// The value is needed, so only an exact or a "not less" verdict settles.
	if d, less, out := s.decide(i, j, -1, -1, c); out == core.OutcomeExact || (out == core.OutcomeBounds && !less) {
		return d, less, nil
	}
	var resp api.DistIfLessResponse
	err := s.c.do(context.Background(), http.MethodPost, s.path("distifless"),
		api.DistIfLessRequest{I: i, J: j, C: api.WireFloat(c)}, &resp)
	if err != nil {
		return 0, false, err
	}
	if resp.Less || resp.Exact {
		d := float64(resp.D)
		s.noteDist(i, j, d)
		return d, resp.Less, nil
	}
	s.noteLowerBound(i, j, c)
	return 0, false, nil
}

// DistIfLess is DistIfLessErr degraded to the legacy contract.
func (s *Session) DistIfLess(i, j int, c float64) (float64, bool) {
	d, less, err := s.DistIfLessErr(i, j, c)
	if err != nil {
		d, less = s.degrade(err, i, j, -1, -1, c)
	}
	return d, less
}

// prefetchChunk is the largest number of bounds ops packed into one batch
// round-trip by PrefetchBounds.
const prefetchChunk = 2048

// PrefetchBounds warms the mirror for pairs with batched bounds reads —
// the core.BoundsPrefetcher hint. It is purely an optimisation: failures
// are swallowed and already-known pairs are skipped, so it can never
// change an answer.
func (s *Session) PrefetchBounds(pairs []core.Pair) {
	if s.noPrefetch || s.noCache {
		return
	}
	var ops []api.BatchOp
	var want []core.Pair
	seen := make(map[uint64]struct{}, len(pairs))
	s.mu.Lock()
	for _, p := range pairs {
		if p.A == p.B {
			continue
		}
		k := pairKey(p.A, p.B)
		if _, dup := seen[k]; dup {
			// Builders announce candidate lists with repeats; one bounds
			// read per unordered pair per hint is enough.
			continue
		}
		seen[k] = struct{}{}
		if _, ok := s.known[k]; ok {
			continue
		}
		ops = append(ops, api.BatchOp{Op: api.OpBounds, I: p.A, J: p.B})
		want = append(want, p)
	}
	s.mu.Unlock()
	for len(ops) > 0 {
		chunk := ops
		pw := want
		if len(chunk) > prefetchChunk {
			chunk, pw = chunk[:prefetchChunk], pw[:prefetchChunk]
		}
		ops, want = ops[len(chunk):], want[len(chunk):]
		var resp api.BatchResponse
		err := s.c.do(context.Background(), http.MethodPost, s.path("batch"),
			api.BatchRequest{Ops: chunk}, &resp)
		if err != nil || len(resp.Results) != len(chunk) {
			return // a failed hint is just a cold cache
		}
		for x, res := range resp.Results {
			if res.Err != "" {
				continue
			}
			s.noteBounds(pw[x].A, pw[x].B, float64(res.LB), float64(res.UB), float64(res.Eps))
		}
	}
}

// Stats snapshots the server session's statistics over the wire; a
// transport failure yields the zero Stats rather than an error, matching
// the View contract.
func (s *Session) Stats() core.Stats {
	var resp api.StatsResponse
	err := s.c.do(context.Background(), http.MethodGet, "/v1/sessions/"+s.name, nil, &resp)
	if err != nil {
		return core.Stats{}
	}
	return core.Stats{
		OracleCalls:         resp.OracleCalls,
		BootstrapCalls:      resp.BootstrapCalls,
		BoundProbes:         resp.BoundProbes,
		SavedComparisons:    resp.SavedComparisons,
		ResolvedComparisons: resp.ResolvedComparisons,
		CacheHits:           resp.CacheHits,
		Retries:             resp.Retries,
		Timeouts:            resp.Timeouts,
		BreakerOpens:        resp.BreakerOpens,
		DegradedAnswers:     resp.DegradedAnswers,
		StoreErrors:         resp.StoreErrors,
		SlackResolved:       resp.SlackResolved,
		Violations:          resp.Violations,
	}
}

// Bootstrap asks the server to resolve the given landmark rows up front.
func (s *Session) Bootstrap(ctx context.Context, landmarks []int) (int64, error) {
	var resp api.BootstrapResponse
	err := s.c.do(ctx, http.MethodPost, s.path("bootstrap"),
		api.BootstrapRequest{Landmarks: landmarks}, &resp)
	if err != nil {
		return 0, err
	}
	return resp.Calls, nil
}

// Delete evicts the session server-side. The local mirror stays valid for
// reads but further round-trips will 404.
func (s *Session) Delete(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.name, nil, nil)
}

var (
	_ core.View             = (*Session)(nil)
	_ core.FallibleView     = (*Session)(nil)
	_ core.BoundsPrefetcher = (*Session)(nil)
)
