package core

// View is the comparison interface proximity algorithms are written
// against: everything a re-authored IF statement needs, with no
// constructor or bootstrap surface. Session implements it for one
// goroutine or many, and internal/proxclient's remote session for one,
// so an algorithm written once against View runs unchanged in every
// setting — the sequential and parallel builders in internal/prox share
// their inner loops this way.
type View interface {
	// N returns the number of objects in the universe.
	N() int
	// MaxDistance returns the a-priori cap on any distance.
	MaxDistance() float64
	// Known reports an already-resolved pair without any oracle call.
	Known(i, j int) (float64, bool)
	// Bounds returns the current lower/upper bounds without an oracle call.
	Bounds(i, j int) (lb, ub float64)
	// Dist resolves the exact distance (memoised).
	Dist(i, j int) float64
	// Less reports whether dist(i,j) < dist(k,l).
	Less(i, j, k, l int) bool
	// LessThan reports whether dist(i,j) < c.
	LessThan(i, j int, c float64) bool
	// DistIfLess resolves dist(i,j) only when the bounds cannot prove
	// dist(i,j) ≥ c; see Session.DistIfLess for the exact contract.
	DistIfLess(i, j int, c float64) (float64, bool)
	// Stats snapshots the session statistics.
	Stats() Stats
}

// FallibleView extends View with the error-propagating comparison
// surface for algorithms that run over remote or otherwise fallible
// oracles and need to distinguish exact answers from degraded ones. The
// View methods remain available and degrade to best-effort estimates
// (latching OracleErr) instead of failing.
type FallibleView interface {
	View
	// DistErr resolves the exact distance or reports why it could not.
	DistErr(i, j int) (float64, error)
	// LessErr is Less with error propagation.
	LessErr(i, j, k, l int) (bool, error)
	// LessOutcome is Less plus a per-call Outcome (never fails).
	LessOutcome(i, j, k, l int) (bool, Outcome)
	// LessThanErr is LessThan with error propagation.
	LessThanErr(i, j int, c float64) (bool, error)
	// DistIfLessErr is DistIfLess with error propagation.
	DistIfLessErr(i, j int, c float64) (float64, bool, error)
	// OracleErr returns the first resolution failure latched by the
	// session, nil while every answer so far is exact.
	OracleErr() error
}

// BoundsPrefetcher is an optional View extension for implementations
// where a bound lookup has real latency — the remote session in
// internal/proxclient, where every primitive is an HTTP round-trip.
// PrefetchBounds announces the pairs an algorithm is about to compare so
// the implementation can fetch their bounds in one batch; it is purely a
// performance hint and must not change any answer. In-process sessions
// answer Bounds from memory and deliberately do not implement it; the
// prox builders probe for it with a type assertion and skip the hint when
// absent.
type BoundsPrefetcher interface {
	// PrefetchBounds warms the implementation's bound state for pairs.
	PrefetchBounds(pairs []Pair)
}

// BatchBoundsView is an optional View extension for implementations that
// answer many bound queries in one pass — Session (one lock
// acquisition, one input-order sweep over the bound scheme's state via
// bounds.BatchBounder) implements it. The service's
// /batch handler probes for it to serve runs of bounds ops without
// per-pair dispatch, and the prox kNN row scan to read a row's n−1
// bounds in one call. The answers are bit-identical to what per-pair
// Bounds calls would return, and BoundProbes advances by the same
// count; pairs sharing their first object should be contiguous, since
// the sweep pays once per change of that object.
type BatchBoundsView interface {
	// BoundsBatch answers pair (is[x], js[x]) into lb[x], ub[x]; all four
	// slices must share a length.
	BoundsBatch(is, js []int, lb, ub []float64)
}

var (
	_ FallibleView    = (*Session)(nil)
	_ BatchBoundsView = (*Session)(nil)
)
