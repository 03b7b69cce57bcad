package metric

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"metricprox/internal/obs"
)

// ErrNonMetric is the sentinel wrapped by every triangle-inequality
// violation this package reports. Callers use errors.Is(err, ErrNonMetric)
// to distinguish "the oracle is not a metric" from transport failures
// (ErrOracleUnavailable and friends), because the two demand different
// remedies: a violation calls for ε-slack or offline calibration, not a
// retry.
var ErrNonMetric = errors.New("metric: triangle inequality violated")

// ViolationError describes one concrete triangle-inequality violation:
// the triple of objects, the three observed distances, and the additive
// margin by which the long side exceeds the sum of the other two. It
// wraps ErrNonMetric.
type ViolationError struct {
	// I, J, K are the three objects of the violated triangle. The
	// violated orientation is d(I,J) > d(I,K) + d(K,J).
	I, J, K int
	// DIJ, DIK, DKJ are the observed distances for the pairs (I,J),
	// (I,K) and (K,J).
	DIJ, DIK, DKJ float64
	// Margin is DIJ − (DIK + DKJ), the additive amount ε by which the
	// triangle inequality fails for this triple.
	Margin float64
}

// Error formats the violation naming the offending pair and witnesses.
func (e *ViolationError) Error() string {
	return fmt.Sprintf(
		"metric: triangle violation on pair (%d,%d): d(%d,%d)=%v > d(%d,%d)+d(%d,%d) = %v+%v (margin %v)",
		e.I, e.J, e.I, e.J, e.DIJ, e.I, e.K, e.K, e.J, e.DIK, e.DKJ, e.Margin)
}

// Unwrap lets errors.Is(err, ErrNonMetric) match.
func (e *ViolationError) Unwrap() error { return ErrNonMetric }

// Metric names recorded by the Auditor once Observe attaches a registry.
// Full semantics live in docs/METRICS.md.
const (
	// MetricViolationChecks counts triangles audited.
	MetricViolationChecks = "metric_violation_checks_total"
	// MetricViolations counts triangles that violated the inequality.
	MetricViolations = "metric_violation_total"
	// MetricViolationMargin is a gauge holding the running worst additive
	// margin ε̂ (0 while no violation has been seen).
	MetricViolationMargin = "metric_violation_margin"
	// MetricViolationRatio is a gauge holding the running worst
	// multiplicative ratio ρ̂ = longest/(sum of the other two sides)
	// over audited triangles (0 until the first triangle is audited; ≤ 1
	// for a true metric).
	MetricViolationRatio = "metric_violation_ratio"
)

// auditGauges are the registry gauges Observe attaches.
type auditGauges struct {
	margin *obs.Gauge
	ratio  *obs.Gauge
}

// Auditor accumulates triangle-inequality evidence from triangles some
// other component already enumerates — the Tri bound scheme walks exactly
// the (i,k,j) triples with both legs known, so auditing there costs zero
// extra oracle calls. The Auditor itself never calls an oracle and never
// blocks: counters are atomic obs counters and the worst margin/ratio are
// CAS-max float cells, so it is safe to drive from under
// core.Session's bookkeeping lock.
//
// The worst additive margin ε̂ (Margin) is the quantity ε-slack mode
// consumes: if every violated triangle has margin ≤ ε, relaxing derived
// intervals to [lb−ε, ub+ε] restores soundness (DESIGN.md §12).
type Auditor struct {
	tol float64

	triangles  obs.Counter
	violations obs.Counter
	marginBits atomic.Uint64 // float64 bits of the worst additive margin
	ratioBits  atomic.Uint64 // float64 bits of the worst long/(sum legs)

	mu  sync.Mutex
	err *ViolationError

	gauges atomic.Pointer[auditGauges]
}

// NewAuditor returns an Auditor that treats margins above tol as
// violations; tol ≤ 0 selects the default 1e-9, absorbing float
// round-off in honest metrics.
func NewAuditor(tol float64) *Auditor {
	if tol <= 0 {
		tol = 1e-9
	}
	return &Auditor{tol: tol}
}

// CheckTriangle audits one triangle given its three pairwise distances:
// dij = d(i,j), dik = d(i,k), dkj = d(k,j). All three orientations are
// checked. It reports true when the triangle satisfies the inequality
// within tolerance, false when it is a violation; in the latter case the
// worst margin/ratio and the first-violation latch are updated.
func (a *Auditor) CheckTriangle(i, j, k int, dij, dik, dkj float64) bool {
	b := a.Batch()
	ok := b.Check(i, j, k, dij, dik, dkj)
	b.Flush()
	return ok
}

// Batch returns an empty TriangleBatch bound to the auditor.
func (a *Auditor) Batch() TriangleBatch { return TriangleBatch{a: a} }

// TriangleBatch accumulates triangle checks locally — pure float
// arithmetic, no atomics — and publishes the lot with Flush in O(1)
// synchronised operations. Use it when one event (a resolution) closes
// many triangles at once: the CI bench-smoke job holds the auditor to
// ≤5% overhead on a kNN build, and per-triangle atomic traffic is what
// that budget cannot afford. Semantics match per-triangle CheckTriangle
// calls except that the latched first violation is the worst of the
// batch rather than the first in enumeration order (within one
// resolution that order is an adjacency-layout artifact anyway).
//
// A TriangleBatch is single-goroutine state; concurrent resolutions each
// take their own batch and Flush serialises through the auditor's
// lock-free cells.
type TriangleBatch struct {
	a          *Auditor
	triangles  int64
	violations int64
	ratio      float64 // worst long/(sum legs) in the batch
	margin     float64 // worst violating margin in the batch
	ve         ViolationError
}

// Check audits one triangle into the batch; it reports true when the
// triangle satisfies the inequality within the auditor's tolerance.
func (b *TriangleBatch) Check(i, j, k int, dij, dik, dkj float64) bool {
	b.triangles++

	// Ratio of the longest side to the sum of the other two; ≤ 1 for a
	// true metric, = ρ for an oracle obeying d ≤ ρ·(sum of legs).
	long, rest := dij, dik+dkj
	if dik > long {
		long, rest = dik, dij+dkj
	}
	if dkj > long {
		long, rest = dkj, dij+dik
	}
	switch {
	case rest > 0:
		if r := long / rest; r > b.ratio {
			b.ratio = r
		}
	case long > 0:
		b.ratio = math.Inf(1)
	}

	// Worst additive margin over the three orientations, and the
	// orientation achieving it (for the latched error).
	vi, vj, vk := i, j, k
	margin := dij - (dik + dkj)
	if m := dik - (dij + dkj); m > margin {
		margin, vi, vj, vk = m, i, k, j
	}
	if m := dkj - (dij + dik); m > margin {
		margin, vi, vj, vk = m, k, j, i
	}
	if !(margin > b.a.tol) { // NaN margins are not violations we can act on
		return true
	}

	b.violations++
	if margin > b.margin {
		b.margin = margin
		ve := ViolationError{I: vi, J: vj, K: vk, Margin: margin}
		// Re-derive the distances in the violated orientation.
		switch {
		case vi == i && vj == j:
			ve.DIJ, ve.DIK, ve.DKJ = dij, dik, dkj
		case vi == i && vj == k:
			ve.DIJ, ve.DIK, ve.DKJ = dik, dij, dkj
		default: // (k, j) long side
			ve.DIJ, ve.DIK, ve.DKJ = dkj, dik, dij
		}
		b.ve = ve
	}
	return false
}

// Flush publishes the batch into the auditor and resets it for reuse.
func (b *TriangleBatch) Flush() {
	if b.triangles == 0 {
		return
	}
	a := b.a
	a.triangles.Add(b.triangles)
	a.maxInto(&a.ratioBits, b.ratio)
	g := a.gauges.Load()
	if g != nil {
		g.ratio.Set(a.Ratio())
	}
	if b.violations > 0 {
		a.violations.Add(b.violations)
		a.maxInto(&a.marginBits, b.margin)
		if g != nil {
			g.margin.Set(a.Margin())
		}
		a.mu.Lock()
		if a.err == nil {
			ve := b.ve
			a.err = &ve
		}
		a.mu.Unlock()
	}
	*b = TriangleBatch{a: a}
}

// maxInto CAS-raises the float64 stored in cell to v if v is larger.
func (a *Auditor) maxInto(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		if !(v > math.Float64frombits(old)) {
			return
		}
		if cell.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Triangles returns the number of triangles audited so far.
func (a *Auditor) Triangles() int64 { return a.triangles.Value() }

// Violations returns the number of violated triangles observed so far.
func (a *Auditor) Violations() int64 { return a.violations.Value() }

// Margin returns the running worst additive margin ε̂ (0 while no
// violation has been observed).
func (a *Auditor) Margin() float64 {
	return math.Float64frombits(a.marginBits.Load())
}

// Ratio returns the running worst longest-side/(sum of legs) ratio over
// audited triangles; ≤ 1 means every audited triangle was metric.
func (a *Auditor) Ratio() float64 {
	return math.Float64frombits(a.ratioBits.Load())
}

// Err returns the first violation observed, or nil. The result is always
// a *ViolationError wrapping ErrNonMetric.
func (a *Auditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err == nil {
		return nil
	}
	return a.err
}

// Observe links the auditor's counters to their series in r, so each
// series counts the evidence counted so far and every later check, and
// attaches the margin and ratio gauges seeded with the running worst
// values: registry values match the accessors no matter when observation
// is attached. Call at most once per Auditor (a second call counts
// twice). Observation never influences auditing decisions.
func (a *Auditor) Observe(r *obs.Registry) {
	a.triangles.Link(r.Counter(MetricViolationChecks))
	a.violations.Link(r.Counter(MetricViolations))
	g := &auditGauges{margin: r.Gauge(MetricViolationMargin), ratio: r.Gauge(MetricViolationRatio)}
	g.margin.Set(a.Margin())
	g.ratio.Set(a.Ratio())
	a.gauges.Store(g)
}
