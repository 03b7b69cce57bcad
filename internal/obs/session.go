package obs

// Metric names recorded by the session layer (internal/core). Each is
// labelled with scheme=<bound scheme>; the oracle-call counter is
// additionally labelled with phase=bootstrap|run. Full semantics live in
// docs/METRICS.md.
const (
	// MetricOracleCalls counts successful oracle resolutions (the
	// paper's primary cost metric), split by phase label.
	MetricOracleCalls = "session_oracle_calls_total"
	// MetricBoundProbes counts Bounds() evaluations for comparisons.
	MetricBoundProbes = "session_bound_probes_total"
	// MetricSaved counts comparisons decided from bounds alone.
	MetricSaved = "session_comparisons_saved_total"
	// MetricResolved counts comparisons that needed the oracle.
	MetricResolved = "session_comparisons_resolved_total"
	// MetricCacheHits counts comparisons answered from resolved pairs.
	MetricCacheHits = "session_cache_hits_total"
	// MetricDegraded counts best-effort answers produced while the
	// oracle was unavailable.
	MetricDegraded = "session_degraded_answers_total"
	// MetricStoreErrors counts failed appends to the attached
	// persistent cache.
	MetricStoreErrors = "session_store_errors_total"
	// MetricOracleLatency is the latency histogram (nanoseconds) of
	// oracle round-trips, recorded only when an Observer is attached.
	MetricOracleLatency = "session_oracle_latency_ns"
	// MetricSlackResolved counts comparisons settled from bound intervals
	// widened by an active ε-slack policy (a subset of MetricSaved).
	MetricSlackResolved = "session_slack_resolved_total"
	// MetricSlackEps is a gauge holding the additive slack ε currently
	// applied to derived intervals (grows under an Auto policy as the
	// violation auditor observes larger margins).
	MetricSlackEps = "session_slack_eps"
)

// Phase label values used on MetricOracleCalls.
const (
	// PhaseRun labels oracle calls made by the algorithm proper.
	PhaseRun = "run"
	// PhaseBootstrap labels oracle calls spent on landmark bootstrap
	// (the Bootstrap column of the paper's tables).
	PhaseBootstrap = "bootstrap"
)

// SessionInstruments is one core.Session's instruments. The counters
// are the session's own, so core.Stats reads only that session's events;
// when the session is observed each is linked to its registry series,
// and a series sums every session with the same scheme (and phase) in
// that registry. Every recording is a single atomic op.
type SessionInstruments struct {
	// OracleCalls counts run-phase oracle resolutions
	// (MetricOracleCalls, phase=run).
	OracleCalls Counter
	// BootstrapCalls counts bootstrap-phase oracle resolutions
	// (MetricOracleCalls, phase=bootstrap).
	BootstrapCalls Counter
	// BoundProbes backs Stats.BoundProbes (MetricBoundProbes).
	BoundProbes Counter
	// SavedComparisons backs Stats.SavedComparisons (MetricSaved).
	SavedComparisons Counter
	// ResolvedComparisons backs Stats.ResolvedComparisons
	// (MetricResolved).
	ResolvedComparisons Counter
	// CacheHits backs Stats.CacheHits (MetricCacheHits).
	CacheHits Counter
	// DegradedAnswers backs Stats.DegradedAnswers (MetricDegraded).
	DegradedAnswers Counter
	// StoreErrors backs Stats.StoreErrors (MetricStoreErrors).
	StoreErrors Counter
	// SlackResolved backs Stats.SlackResolved (MetricSlackResolved).
	SlackResolved Counter
	// SlackEps is the registry gauge holding the session's current
	// additive slack (MetricSlackEps); nil for an unobserved session.
	SlackEps *Gauge
	// OracleLatency is the registry's oracle round-trip latency
	// histogram (MetricOracleLatency); nil for an unobserved session,
	// which never reads the clock for it.
	OracleLatency *Histogram
}

// NewSessionInstruments returns a session's instruments. With a nil r
// the counters are private and the gauge and histogram absent; otherwise
// each counter is linked to its series in r, labelled with the given
// bound-scheme name, and the gauge and histogram are r's own.
func NewSessionInstruments(r *Registry, scheme string) *SessionInstruments {
	ins := &SessionInstruments{}
	if r == nil {
		return ins
	}
	s := L("scheme", scheme)
	ins.OracleCalls.Link(r.Counter(MetricOracleCalls, s, L("phase", PhaseRun)))
	ins.BootstrapCalls.Link(r.Counter(MetricOracleCalls, s, L("phase", PhaseBootstrap)))
	ins.BoundProbes.Link(r.Counter(MetricBoundProbes, s))
	ins.SavedComparisons.Link(r.Counter(MetricSaved, s))
	ins.ResolvedComparisons.Link(r.Counter(MetricResolved, s))
	ins.CacheHits.Link(r.Counter(MetricCacheHits, s))
	ins.DegradedAnswers.Link(r.Counter(MetricDegraded, s))
	ins.StoreErrors.Link(r.Counter(MetricStoreErrors, s))
	ins.SlackResolved.Link(r.Counter(MetricSlackResolved, s))
	ins.SlackEps = r.Gauge(MetricSlackEps, s)
	ins.OracleLatency = r.Histogram(MetricOracleLatency, s)
	return ins
}
