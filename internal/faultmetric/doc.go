// Package faultmetric is a deterministic, seed-driven chaos wrapper for
// distance oracles. It turns the perfect in-process oracle the library is
// tested against into the hostile backend the paper actually assumes — a
// rate-limited maps API, an edit-distance service behind a flaky load
// balancer — by injecting, per call:
//
//   - transient errors (ErrTransient): one-off failures a retry fixes;
//   - rate-limit rejections (ErrRateLimited): quota-shaped push-back;
//   - outage windows (ErrOutage): bursts of consecutive failures that
//     model a backend going down, sized to trip a circuit breaker;
//   - injected latency: slow responses that exercise per-call deadlines;
//   - corrupt values: NaN / negative distances returned with a nil error,
//     exercising the corrupt-value rejection of the layers above.
//
// Every decision is a pure function of (seed, pair, attempt): attempt k on
// pair (i, j) fails or succeeds identically no matter how goroutines
// interleave, so chaos runs are reproducible from their seed alone and a
// bounded per-pair failure cap can guarantee that a retry policy with a
// sufficient budget always completes. Outage windows are the one
// exception — they are indexed by a global call counter, so their *onset*
// depends on call order under concurrency — but soundness never does:
// failures only ever suppress answers, never corrupt committed ones.
//
// The wrapper counts every injection (Counters) so tests can cross-check
// the retry accounting of the resilient layer against ground truth.
// Injector.Observe links those counters to an obs.Registry's series
// (faultmetric_* series; see docs/METRICS.md and DESIGN.md §8) without
// influencing the fault schedule.
//
// The CLIs' -faults and -near-metric flags build their oracle here too:
// ParseFlags merges the two specs into one Config, and Stack wraps a
// space in the injector and, for transient faults, the resilient retry
// layer.
package faultmetric
