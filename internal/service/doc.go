// Package service implements the metricproxd daemon: a long-running HTTP
// server hosting named multi-tenant core.Sessions over one metric space,
// so many clients can amortise a single shared partial graph of resolved
// distances and bounds instead of each re-paying the oracle.
//
// The layer split: core.SessionRegistry owns session lifecycle (single-
// flight creation, max-sessions cap, TTL eviction); this package owns
// transport (the HTTP/JSON API of internal/service/api), admission
// control (bounded per-session work slots with Retry-After load
// shedding), observability (per-endpoint latency histograms, queue-depth
// gauge, shed counter in internal/obs), persistence (one cachestore file
// per session for warm restarts), and graceful drain. See DESIGN.md §10.
//
// Since the /search endpoint (search.go), the daemon also hosts one lazy
// navigable-small-world graph per session (internal/nsw), built on first
// query with the session's own landmarks seeding every beam and shared by
// all subsequent queries; docs/SEARCH.md specifies the wire schema and
// the determinism contract that CI's server-smoke job enforces.
package service
