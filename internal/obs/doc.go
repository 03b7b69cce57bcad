// Package obs is the repository's zero-dependency observability layer:
// a lock-cheap metrics registry, an event tracer, and a JSON exposition
// surface, threaded through the oracle stack so a live workload can be
// watched, attributed, and profiled without changing what it computes.
//
// The paper's entire value claim is a count — oracle calls saved per IF
// statement resolved from triangle-inequality bounds — so the library's
// natural telemetry is exactly that count, broken down by who paid it and
// why. Three layers record into this package:
//
//   - internal/core (Session) counts oracle calls per phase (bootstrap
//     vs run), comparisons saved/resolved, cache hits, degraded answers,
//     and oracle latency, and — when a Tracer is attached — emits one
//     Event per comparison recording how it was settled (cache, bounds,
//     oracle, degraded) and the bound gap that forced any oracle
//     fallback.
//   - internal/resilient records its retry/breaker accounting (attempts,
//     retries, timeouts, breaker transitions, attempt latency).
//   - internal/faultmetric records its injection ground truth, so a chaos
//     run's dashboards show injected cause next to observed effect.
//
// Each of these keeps its own per-instance Counters, which its snapshot
// (core.Stats, Counters()) reads; observing it links them to registry
// series (Counter.Link), so a series sums every linked instance.
//
// # Design rules
//
// Observation never influences decisions. Instruments are write-only from
// the hot path's perspective: nothing in internal/core or below ever
// reads a metric to decide a comparison, and internal/bounds must not
// import this package at all — the proxlint analyzer "obspurity" enforces
// that mechanically. Failures in observation (a full trace sink, a slow
// scrape) degrade observability, never answers.
//
// Overhead is budgeted, not assumed. Counters and histograms are single
// atomic operations on pre-resolved handles, linked or not — no map
// lookups, no label formatting, no allocation on the hot path.
// Tracing and latency timing are opt-in per session (attach an
// Observer); without one, a session pays only the atomic counter
// increments. BenchmarkObservation (internal/prox) prices the observed
// modes; DESIGN.md §8 records the budget.
//
// # Composition
//
// A Registry hands out Counter/Gauge/Histogram handles keyed by
// (name, labels); the conventional labels are scheme (bound scheme name)
// and phase (bootstrap | run). A Tracer keeps a fixed-capacity ring of
// the most recent Events plus exact running tallies per (op, outcome),
// and optionally streams every event to a JSONL sink. An Observer
// bundles the two for plumbing through constructors
// (core.WithObserver, experiments.Config.Observer). Handler serves a
// registry as expvar-style JSON for scraping; cmd/metricprox -listen
// mounts it next to net/http/pprof so long builds can be profiled live.
//
// Every metric and trace field is documented in docs/METRICS.md.
package obs
