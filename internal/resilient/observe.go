package resilient

import "metricprox/internal/obs"

// Metric names recorded by the policy layer once Observe attaches a
// registry. Each counter series sums one Counters field over the oracles
// observed into the registry (plus the breaker-state gauge and
// per-attempt latency histogram, which have no Counters equivalent);
// full semantics live in docs/METRICS.md.
const (
	// MetricAttempts sums Counters.Attempts.
	MetricAttempts = "resilient_attempts_total"
	// MetricSuccesses sums Counters.Successes.
	MetricSuccesses = "resilient_successes_total"
	// MetricRetries sums Counters.Retries.
	MetricRetries = "resilient_retries_total"
	// MetricTimeouts sums Counters.Timeouts.
	MetricTimeouts = "resilient_timeouts_total"
	// MetricCorrupts sums Counters.Corrupts.
	MetricCorrupts = "resilient_corrupt_responses_total"
	// MetricBreakerOpens sums Counters.BreakerOpens.
	MetricBreakerOpens = "resilient_breaker_opens_total"
	// MetricFastFails sums Counters.FastFails.
	MetricFastFails = "resilient_fast_fails_total"
	// MetricExhausted sums Counters.Exhausted.
	MetricExhausted = "resilient_exhausted_total"
	// MetricBreakerState is a gauge holding the breaker's stored state as
	// its numeric value (0 closed, 1 open, 2 half-open). It reflects the
	// last transition; an open breaker whose cooldown has expired still
	// reads 1 until the next attempt flips it.
	MetricBreakerState = "resilient_breaker_state"
	// MetricAttemptLatency is the histogram (nanoseconds) of individual
	// backend attempts — one observation per attempt, unlike the session's
	// oracle-latency histogram which spans a whole retried resolution.
	MetricAttemptLatency = "resilient_attempt_latency_ns"
)

// Observe links the policy layer's counters to their series in r, so each
// series counts the events counted so far and every later one, and
// attaches the breaker-state gauge and the per-attempt latency histogram.
// Registry values then equal Counters() snapshots no matter when
// observation is attached. Call at most once per Oracle (a second call
// counts twice). Observation is write-only: no policy decision reads an
// instrument.
func (o *Oracle) Observe(r *obs.Registry) {
	o.attempts.Link(r.Counter(MetricAttempts))
	o.successes.Link(r.Counter(MetricSuccesses))
	o.retries.Link(r.Counter(MetricRetries))
	o.timeouts.Link(r.Counter(MetricTimeouts))
	o.corrupts.Link(r.Counter(MetricCorrupts))
	o.br.opens.Link(r.Counter(MetricBreakerOpens))
	o.fastFails.Link(r.Counter(MetricFastFails))
	o.exhausted.Link(r.Counter(MetricExhausted))
	o.br.mu.Lock()
	o.br.gauge = r.Gauge(MetricBreakerState)
	o.br.publish()
	o.br.mu.Unlock()
	o.latency.Store(r.Histogram(MetricAttemptLatency))
}
