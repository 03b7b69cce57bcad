package faultmetric

import "metricprox/internal/obs"

// Metric names recorded by the injector once Observe attaches a registry,
// each summing one Counters field over the injectors observed into it.
// They are the chaos harness's ground truth for cross-checking the
// resilient layer's accounting; full semantics live in docs/METRICS.md.
const (
	// MetricCalls sums Counters.Calls.
	MetricCalls = "faultmetric_calls_total"
	// MetricTransients sums Counters.Transients.
	MetricTransients = "faultmetric_transients_total"
	// MetricRateLimits sums Counters.RateLimits.
	MetricRateLimits = "faultmetric_rate_limits_total"
	// MetricOutages sums Counters.Outages.
	MetricOutages = "faultmetric_outages_total"
	// MetricCorrupts sums Counters.Corrupts.
	MetricCorrupts = "faultmetric_corrupts_total"
	// MetricLatencies sums Counters.Latencies.
	MetricLatencies = "faultmetric_latencies_total"
	// MetricCtxCancels sums Counters.CtxCancels.
	MetricCtxCancels = "faultmetric_ctx_cancels_total"
	// MetricPerturbations sums Counters.Perturbations.
	MetricPerturbations = "faultmetric_perturbations_total"
)

// Observe links the injector's counters to their series in r, so each
// series counts the injections counted so far and every later one:
// registry values equal Counters() snapshots no matter when observation
// is attached. Call at most once per Injector (a second call counts
// twice). Observation never influences the fault schedule — decisions
// remain a pure function of (seed, pair, attempt).
func (f *Injector) Observe(r *obs.Registry) {
	f.calls.Link(r.Counter(MetricCalls))
	f.transients.Link(r.Counter(MetricTransients))
	f.rateLimits.Link(r.Counter(MetricRateLimits))
	f.outages.Link(r.Counter(MetricOutages))
	f.corrupts.Link(r.Counter(MetricCorrupts))
	f.latencies.Link(r.Counter(MetricLatencies))
	f.ctxCancels.Link(r.Counter(MetricCtxCancels))
	f.perturbations.Link(r.Counter(MetricPerturbations))
}
