// Package metric defines the distance-oracle abstraction at the heart of
// the paper's cost model, together with a set of concrete metric spaces.
//
// The paper's setting (Section 1.1) is a finite universe of atomic objects
// in a general metric space whose pairwise distance is served by an
// *expensive oracle* — a maps API, an edit-distance engine, an image
// comparator. The library never assumes coordinates: everything upstream of
// this package sees only Space.Distance(i, j).
//
// Oracle wraps a Space with call counting and an optional cost model so
// that experiments can report both the number of oracle calls (the paper's
// primary metric) and the modelled completion time under a given per-call
// latency (Figures 7d, 8a, 8b) without actually sleeping.
package metric

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"metricprox/internal/fcmp"
)

// Space is a finite universe of objects 0..Len()-1 with a metric distance.
// Implementations must satisfy the metric axioms: identity, symmetry, and
// the triangle inequality; every bound scheme in this library relies on
// them for correctness.
type Space interface {
	Len() int
	Distance(i, j int) float64
}

// Oracle wraps a Space, counting distance resolutions. It is safe for
// concurrent use. An Oracle deliberately does not cache: deduplication of
// repeated pairs is the Session's job, and keeping the Oracle dumb makes
// the call counts in experiments exact.
type Oracle struct {
	space   Space
	calls   atomic.Int64
	latency time.Duration // if nonzero, each call really sleeps
}

// NewOracle returns an oracle over the given space.
func NewOracle(space Space) *Oracle {
	return &Oracle{space: space}
}

// NewLatencyOracle returns an oracle that sleeps for latency on every call,
// physically simulating an expensive third-party API. Use only in demos;
// experiments use the analytical cost model instead.
func NewLatencyOracle(space Space, latency time.Duration) *Oracle {
	return &Oracle{space: space, latency: latency}
}

// Len returns the number of objects in the underlying space.
func (o *Oracle) Len() int { return o.space.Len() }

// Distance resolves the exact distance between objects i and j,
// incrementing the call counter.
//
// Distance panics if the underlying space returns NaN or a negative value:
// the legacy infallible path has no error channel, and letting a corrupt
// backend response through would silently poison every triangle-inequality
// bound derived from it. Backends that can misbehave should be reached
// through DistanceCtx (which returns a typed error wrapping
// ErrInvalidDistance instead) or wrapped in the resilient policy layer.
func (o *Oracle) Distance(i, j int) float64 {
	o.calls.Add(1)
	if o.latency > 0 {
		time.Sleep(o.latency)
	}
	d := o.space.Distance(i, j)
	if err := ValidateDistance(d, i, j); err != nil {
		panic(err)
	}
	return d
}

// Calls returns the number of oracle calls made so far.
func (o *Oracle) Calls() int64 { return o.calls.Load() }

// ResetCalls zeroes the call counter.
func (o *Oracle) ResetCalls() { o.calls.Store(0) }

// CostModel converts a call count and a measured CPU duration into the
// completion time the run would have had if every oracle call cost PerCall.
// This is how the paper's "varying the cost of distance oracle" figures are
// regenerated without sleeping for hours.
type CostModel struct {
	PerCall time.Duration
}

// Completion returns cpu + calls × PerCall.
func (c CostModel) Completion(calls int64, cpu time.Duration) time.Duration {
	return cpu + time.Duration(calls)*c.PerCall
}

// --- concrete spaces ---

// Vectors is a Space over points in R^dim under a Minkowski p-norm, with an
// optional scale factor applied to every distance (used to normalise into
// [0,1], the paper's setting).
type Vectors struct {
	Points [][]float64
	P      float64 // 1 = Manhattan, 2 = Euclidean, +Inf = Chebyshev
	Scale  float64 // multiplied into every distance; 0 means 1
}

// NewVectors returns a Minkowski-p space over the given points.
func NewVectors(points [][]float64, p, scale float64) *Vectors {
	if scale == 0 {
		scale = 1
	}
	return &Vectors{Points: points, P: p, Scale: scale}
}

// Len returns the number of points.
func (v *Vectors) Len() int { return len(v.Points) }

// Distance returns the scaled Minkowski-p distance between points i and j.
func (v *Vectors) Distance(i, j int) float64 {
	a, b := v.Points[i], v.Points[j]
	switch {
	case math.IsInf(v.P, 1):
		max := 0.0
		for k := range a {
			if d := math.Abs(a[k] - b[k]); d > max {
				max = d
			}
		}
		return v.Scale * max
	case v.P == 1:
		sum := 0.0
		for k := range a {
			sum += math.Abs(a[k] - b[k])
		}
		return v.Scale * sum
	case v.P == 2:
		sum := 0.0
		for k := range a {
			d := a[k] - b[k]
			sum += d * d
		}
		return v.Scale * math.Sqrt(sum)
	default:
		sum := 0.0
		for k := range a {
			sum += math.Pow(math.Abs(a[k]-b[k]), v.P)
		}
		return v.Scale * math.Pow(sum, 1/v.P)
	}
}

// Matrix is a Space backed by a precomputed symmetric distance matrix.
// It is the ground-truth vehicle for tests and for replaying real datasets.
type Matrix struct {
	D [][]float64
}

// NewMatrix validates and wraps a symmetric matrix with zero diagonal.
// It returns an error if the matrix is ragged, asymmetric, or has a
// nonzero diagonal; triangle-inequality validation is a separate, O(n³)
// opt-in via Validate.
func NewMatrix(d [][]float64) (*Matrix, error) {
	n := len(d)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("metric: row %d has length %d, want %d", i, len(d[i]), n)
		}
		if d[i][i] != 0 {
			return nil, fmt.Errorf("metric: nonzero diagonal at %d", i)
		}
		for j := range d[i] {
			if !fcmp.ExactEq(d[i][j], d[j][i]) {
				return nil, fmt.Errorf("metric: asymmetry at (%d,%d)", i, j)
			}
			if d[i][j] < 0 || math.IsNaN(d[i][j]) {
				return nil, fmt.Errorf("metric: invalid distance %v at (%d,%d)", d[i][j], i, j)
			}
		}
	}
	return &Matrix{D: d}, nil
}

// Len returns the matrix dimension.
func (m *Matrix) Len() int { return len(m.D) }

// Distance returns D[i][j].
func (m *Matrix) Distance(i, j int) float64 { return m.D[i][j] }

// Validate checks the triangle inequality over all triples, returning the
// first violation found, or nil.
func (m *Matrix) Validate() error {
	n := len(m.D)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := 0; k < n; k++ {
				if m.D[i][j] > m.D[i][k]+m.D[k][j]+1e-12 {
					return fmt.Errorf("metric: triangle violation d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
						i, j, m.D[i][j], i, k, k, j, m.D[i][k]+m.D[k][j])
				}
			}
		}
	}
	return nil
}

// Strings is a Space over strings under (scaled) Levenshtein edit distance.
// Scaling by a constant preserves the metric axioms; callers typically use
// 1/maxLen to land in [0,1].
type Strings struct {
	Items []string
	Scale float64
}

// NewStrings returns a Levenshtein space. scale 0 means 1.
func NewStrings(items []string, scale float64) *Strings {
	if scale == 0 {
		scale = 1
	}
	return &Strings{Items: items, Scale: scale}
}

// Len returns the number of strings.
func (s *Strings) Len() int { return len(s.Items) }

// Distance returns the scaled Levenshtein distance, computed with the
// classic two-row dynamic program — deliberately the expensive part.
func (s *Strings) Distance(i, j int) float64 {
	return s.Scale * float64(Levenshtein(s.Items[i], s.Items[j]))
}

// Levenshtein returns the edit distance between a and b.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func minInt(vals ...int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Power wraps a Space with the transformed distance d(i,j)^Q.
//
//   - 0 < Q ≤ 1 (the "snowflake" transform): the result is still a true
//     metric — concave transforms preserve the triangle inequality.
//   - Q > 1: the result is only a ρ-relaxed metric with ρ = 2^(Q−1)
//     (d^Q ≤ 2^(Q−1)·(a^Q + b^Q) whenever d ≤ a+b). Squared Euclidean
//     (Q = 2, ρ = 2) is the classic case; pair it with
//     bounds.NewTriRelaxed or a Tri session declaring
//     core.SlackPolicy{Ratio: Rho()}, the generalised setting the paper's
//     Characteristic 1 admits.
type Power struct {
	Base Space
	Q    float64
}

// NewPower wraps base with exponent q > 0.
func NewPower(base Space, q float64) *Power {
	if q <= 0 {
		panic("metric: Power exponent must be positive")
	}
	return &Power{Base: base, Q: q}
}

// Rho returns the relaxation factor of the transformed space: 1 for
// Q ≤ 1, 2^(Q−1) otherwise.
func (p *Power) Rho() float64 {
	if p.Q <= 1 {
		return 1
	}
	return math.Pow(2, p.Q-1)
}

// Len returns the base universe size.
func (p *Power) Len() int { return p.Base.Len() }

// Distance returns base distance raised to Q.
func (p *Power) Distance(i, j int) float64 {
	return math.Pow(p.Base.Distance(i, j), p.Q)
}
