// Package resilient wraps any fallible distance oracle with the retry
// discipline an expensive external backend demands: per-attempt
// context deadlines, capped exponential backoff with deterministic jitter,
// a three-state circuit breaker (closed / open / half-open), and a total
// attempt budget per call.
//
// The layer is deliberately value-agnostic: it never inspects distances
// beyond rejecting corrupt (NaN / negative) responses, so it composes with
// any metric.FallibleOracle — the in-process metric.Oracle, the
// faultmetric chaos injector, or a real network client. The session layer
// above it (internal/core) degrades to bounds-only answers when the
// breaker reports the backend unavailable.
//
// Determinism: backoff jitter is a pure function of (Seed, pair, attempt)
// — see Backoff — so a retry schedule is reproducible from its seed, which
// the chaos harness and the backoff fuzz target rely on.
//
// # Observability
//
// Oracle.Observe links the counters behind Counters to an obs.Registry's
// series and attaches the breaker-state gauge and the per-attempt latency
// histogram (resilient_* series), exposed alongside the session-layer
// series on the cmd/metricprox -listen endpoint. Observation is write-only — no retry
// or breaker decision ever reads an instrument — so an observed run
// behaves identically to an unobserved one. See docs/METRICS.md and
// DESIGN.md §8.
package resilient
