package core

import "errors"

// ErrOracleUnavailable wraps every resolution failure surfaced by the
// error-propagating Session methods (DistErr, LessErr, …): the bound
// scheme could not settle the comparison and the oracle could not be
// reached (retry budget exhausted, circuit breaker open, or the session
// context is dead). The underlying cause is wrapped and available via
// errors.Is/As.
var ErrOracleUnavailable = errors.New("core: oracle unavailable")

// Outcome classifies how a comparison was answered. The three
// user-visible outcomes let callers of a fallible session distinguish
// "exact", "bounds-resolved" (also exact — bounds are sound — but paid no
// oracle call), and "best-effort while unavailable".
type Outcome int

const (
	// OutcomeUndecided is internal: the bookkeeping half of a comparison
	// could not settle it and the oracle must be consulted. It never
	// escapes the exported methods.
	OutcomeUndecided Outcome = iota
	// OutcomeExact means the answer came from exact distances (cache hit
	// or a successful oracle resolution).
	OutcomeExact
	// OutcomeBounds means the answer was proven from triangle-inequality
	// bounds (or the comparator) with no oracle call. Still exact.
	OutcomeBounds
	// OutcomeUnavailable means a needed resolution failed and the answer
	// is a best-effort estimate from bounds midpoints. OracleErr is
	// latched whenever this outcome is produced.
	OutcomeUnavailable
	// OutcomeSlack means the answer was proven from bound intervals that
	// an active SlackPolicy had widened: exact under the declared
	// near-metric contract (d ≤ ρ·(sum of legs) + ε), rather than
	// unconditionally like OutcomeBounds.
	OutcomeSlack
)

// String returns the outcome name used in reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeUndecided:
		return "undecided"
	case OutcomeExact:
		return "exact"
	case OutcomeBounds:
		return "bounds"
	case OutcomeUnavailable:
		return "unavailable"
	case OutcomeSlack:
		return "slack"
	default:
		return "outcome(?)"
	}
}

// OracleErr returns the first resolution failure the session has seen,
// or nil. Once non-nil, answers produced since by the legacy infallible
// methods may be best-effort estimates (counted in Stats.DegradedAnswers)
// rather than exact; a run that finishes with OracleErr() == nil is
// guaranteed identical to a fault-free run.
func (s *Session) OracleErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.oracleErr
}

// noteOracleErr latches the first resolution failure. The caller holds
// the lock.
func (s *Session) noteOracleErr(err error) {
	if s.oracleErr == nil {
		s.oracleErr = err
	}
}

// estimate returns the midpoint of the current bounds for (i, j) — the
// best-effort value degrade falls back to when a resolution fails.
// Estimates are never committed to the graph or the bound scheme, so they
// cannot poison later exact answers. The caller holds the lock.
func (s *Session) estimate(i, j int) float64 {
	lb, ub := s.bounds(i, j)
	return (lb + ub) / 2
}
