package faultmetric

import "metricprox/internal/obs"

// Metric names recorded by the injector once Observe attaches a registry,
// mirroring the Counters fields one-to-one. They are the chaos harness's
// ground truth for cross-checking the resilient layer's accounting; full
// semantics live in docs/METRICS.md.
const (
	// MetricCalls mirrors Counters.Calls.
	MetricCalls = "faultmetric_calls_total"
	// MetricTransients mirrors Counters.Transients.
	MetricTransients = "faultmetric_transients_total"
	// MetricRateLimits mirrors Counters.RateLimits.
	MetricRateLimits = "faultmetric_rate_limits_total"
	// MetricOutages mirrors Counters.Outages.
	MetricOutages = "faultmetric_outages_total"
	// MetricCorrupts mirrors Counters.Corrupts.
	MetricCorrupts = "faultmetric_corrupts_total"
	// MetricLatencies mirrors Counters.Latencies.
	MetricLatencies = "faultmetric_latencies_total"
	// MetricCtxCancels mirrors Counters.CtxCancels.
	MetricCtxCancels = "faultmetric_ctx_cancels_total"
	// MetricPerturbations mirrors Counters.Perturbations.
	MetricPerturbations = "faultmetric_perturbations_total"
)

// instruments is the injector's set of obs handles.
type instruments struct {
	calls         *obs.Counter
	transients    *obs.Counter
	rateLimits    *obs.Counter
	outages       *obs.Counter
	corrupts      *obs.Counter
	latencies     *obs.Counter
	ctxCancels    *obs.Counter
	perturbations *obs.Counter
}

// Observe registers the injector's instruments in r and mirrors every
// future injection into them. The counters are seeded with the injections
// already counted, so registry values equal Counters() snapshots no
// matter when observation is attached. Call at most once per Injector.
// Observation never influences the fault schedule — decisions remain a
// pure function of (seed, pair, attempt).
func (f *Injector) Observe(r *obs.Registry) {
	ins := &instruments{
		calls:         r.Counter(MetricCalls),
		transients:    r.Counter(MetricTransients),
		rateLimits:    r.Counter(MetricRateLimits),
		outages:       r.Counter(MetricOutages),
		corrupts:      r.Counter(MetricCorrupts),
		latencies:     r.Counter(MetricLatencies),
		ctxCancels:    r.Counter(MetricCtxCancels),
		perturbations: r.Counter(MetricPerturbations),
	}
	f.mu.Lock()
	ins.calls.Add(f.counts.Calls)
	ins.transients.Add(f.counts.Transients)
	ins.rateLimits.Add(f.counts.RateLimits)
	ins.outages.Add(f.counts.Outages)
	ins.corrupts.Add(f.counts.Corrupts)
	ins.latencies.Add(f.counts.Latencies)
	ins.ctxCancels.Add(f.counts.CtxCancels)
	ins.perturbations.Add(f.counts.Perturbations)
	f.ins = ins
	f.mu.Unlock()
}
