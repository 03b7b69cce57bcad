// Near-metric robustness: the ε-slack contract and the violation auditor
// hook. See DESIGN.md §12.
//
// Every bound scheme derives its intervals from the triangle inequality;
// a real oracle that violates it slightly (traffic-dependent times,
// learned comparators) silently breaks output preservation. A SlackPolicy
// declares the tolerated violation — d(x,z) ≤ ρ·(d(x,y)+d(y,z)) + ε —
// and the session restores soundness by widening every *derived* interval
// to [lb−ε, ub+ε] (for ρ via the Tri scheme's relaxation machinery).
// Oracle-resolved values stay exact and remain the only thing committed to
// the graph, the bound scheme, or the cache store; the relaxation touches
// nothing durable, which is the same commit-discipline argument the
// schemes already rely on (and the slackescape analyzer enforces it).
package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"metricprox/internal/metric"
	"metricprox/internal/obs"
)

// SlackPolicy declares how far the oracle may stray from a true metric:
// d(x,z) ≤ Ratio·(d(x,y)+d(y,z)) + Additive for every triple. Under an
// active policy the session widens every derived bound interval
// accordingly, so comparisons short-circuited from bounds remain correct
// for the declared near-metric; such decisions are counted as
// Stats.SlackResolved and traced with outcome "slack".
//
// Additive slack is only sound for schemes whose intervals chain a single
// triangle per derivation — SchemeNoop, SchemeTri, SchemeLAESA,
// SchemeTLAESA. Multi-hop schemes (SPLUB, ADM, DFT, Hybrid) accumulate
// one margin per hop, so a fixed ε does not bound their error and the
// constructor panics on the combination. Ratio slack reuses the
// WithRelaxation machinery and is limited to SchemeNoop and SchemeTri for
// the same reason.
type SlackPolicy struct {
	// Additive is ε: the worst additive triangle-violation margin the
	// oracle is declared (or observed) to have. Must be ≥ 0 and finite.
	Additive float64
	// Ratio is ρ: the multiplicative violation factor. 0 or 1 means
	// none; values > 1 fold into the session's relaxation factor.
	Ratio float64
	// Auto grows the effective ε beyond Additive as the session's
	// violation auditor observes larger margins on resolved triangles.
	// In-process sessions derive bounds fresh on every query, so an
	// escalation takes effect immediately; remote mirrors watch the
	// served ε and drop their cached intervals when it rises
	// (proxclient).
	Auto bool
}

// Active reports whether the policy relaxes anything.
func (p SlackPolicy) Active() bool {
	return p.Additive > 0 || p.Ratio > 1 || p.Auto
}

// Relax widens one derived interval by eps, clamped to [0, maxDist]. The
// result is a relaxed-bound estimate pair: sound for deciding comparisons
// under the declared near-metric, but never to be committed or serialized
// as an exact distance (the slackescape analyzer tracks values returned
// here into AddEdge, cachestore, and WireFloat sinks).
func (p SlackPolicy) Relax(lb, ub, eps, maxDist float64) (float64, float64) {
	lb -= eps
	if lb < 0 {
		lb = 0
	}
	ub += eps
	if ub > maxDist {
		ub = maxDist
	}
	return lb, ub
}

// WithSlack declares the oracle a near-metric and activates ε-slack mode;
// see SlackPolicy for the contract and the scheme restrictions.
func WithSlack(p SlackPolicy) Option {
	if p.Additive < 0 || math.IsNaN(p.Additive) || math.IsInf(p.Additive, 0) {
		panic("core: SlackPolicy.Additive must be ≥ 0 and finite")
	}
	if p.Ratio != 0 && (p.Ratio < 1 || math.IsInf(p.Ratio, 0) || math.IsNaN(p.Ratio)) {
		panic("core: SlackPolicy.Ratio must be ≥ 1 and finite (or 0 for none)")
	}
	return func(s *Session) {
		s.slack = p
		if p.Ratio > 1 && p.Ratio > s.rho {
			// Ratio slack is exactly a ρ-relaxed metric declaration; the
			// Tri scheme's relaxation machinery produces the widened
			// intervals and the constructor's existing gate rejects
			// schemes that cannot support it.
			s.rho = p.Ratio
		}
	}
}

// WithAuditor attaches a triangle-violation auditor: every oracle
// resolution is checked against the triangles it closes on the known-edge
// graph (exactly the triples the Tri scheme enumerates — zero extra
// oracle calls). The first violation is surfaced by ViolationErr and the
// running worst margin feeds an Auto slack policy. Attach the same
// auditor to an obs.Registry (metric.Auditor.Observe) for the
// metric_violation_* series.
func WithAuditor(a *metric.Auditor) Option {
	if a == nil {
		panic("core: WithAuditor requires a non-nil auditor")
	}
	return func(s *Session) { s.auditor = a }
}

// Auditor returns the attached violation auditor, or nil.
func (s *Session) Auditor() *metric.Auditor { return s.auditor }

// Slack returns the session's slack policy (zero value when none).
func (s *Session) Slack() SlackPolicy { return s.slack }

// ViolationErr returns the first triangle-inequality violation the
// session's auditor observed among resolved distances, or nil. The result
// is a *metric.ViolationError wrapping metric.ErrNonMetric. In strict
// mode (auditor attached, no slack policy) a non-nil ViolationErr means
// the run's output-preservation guarantee is void and the oracle needs
// either an ε-slack declaration or offline calibration
// (cmd/metricprox -calibrate).
func (s *Session) ViolationErr() error {
	if s.auditor == nil {
		return nil
	}
	return s.auditor.Err()
}

// SlackEps returns the additive slack currently applied to derived
// intervals: 0 when additive slack is off, max(Additive, auditor margin)
// under an Auto policy. Remote mirrors compare successive values to
// detect escalation and drop cached intervals (server bounds no longer
// only tighten once ε can grow).
func (s *Session) SlackEps() float64 {
	if !s.slackAdditive() {
		return 0
	}
	return s.slackEps()
}

// slackAdditive reports whether additive interval widening is configured.
func (s *Session) slackAdditive() bool {
	return s.slack.Additive > 0 || s.slack.Auto
}

// slackEps computes the effective additive ε. Callers check
// slackAdditive first.
func (s *Session) slackEps() float64 {
	eps := s.slack.Additive
	if s.slack.Auto && s.auditor != nil {
		if m := s.auditor.Margin(); m > eps {
			eps = m
		}
	}
	return eps
}

// slackOn reports whether derived intervals are currently relaxed — the
// decision-path test for counting a bounds-settled comparison as
// "resolved under slack".
func (s *Session) slackOn() bool {
	if s.slack.Ratio > 1 {
		return true
	}
	return s.slackAdditive() && s.slackEps() > 0
}

// boundsOutcome classifies a comparison settled from bound intervals —
// OutcomeBounds normally, OutcomeSlack (counted in Stats.SlackResolved)
// while the intervals are relaxed by an active slack policy — returning
// both the Outcome and the obs trace label for it.
func (s *Session) boundsOutcome() (Outcome, string) {
	if s.slackOn() {
		s.ins.SlackResolved.Inc()
		return OutcomeSlack, obs.OutcomeSlack
	}
	return OutcomeBounds, obs.OutcomeBounds
}

// auditTriangles checks every triangle the fresh resolution (i, j, d)
// closes against the known-edge graph: the common neighbours of i and j,
// found by a two-cursor merge of the sorted adjacency rows. Rows are
// borrowed before AddEdge commits the new edge (the commit may grow the
// adjacency slabs and invalidate borrowed rows) and never escape this
// frame. Cost is O(deg(i)+deg(j)) comparisons and zero oracle calls.
func (s *Session) auditTriangles(i, j int, d float64) {
	ni, wi := s.g.Row(i)
	nj, wj := s.g.Row(j)
	// One resolution closes deg∩ triangles; batch them so the auditor's
	// atomic cells are touched once per resolution, not once per triangle.
	ab := s.auditor.Batch()
	for a, b := 0, 0; a < len(ni) && b < len(nj); {
		switch {
		case ni[a] < nj[b]:
			a++
		case ni[a] > nj[b]:
			b++
		default:
			ab.Check(i, j, int(ni[a]), d, wi[a], wj[b])
			a++
			b++
		}
	}
	ab.Flush()
}

// SlackSupported reports whether policy p can be soundly combined with
// scheme, as a returned error instead of the constructor panic — for
// transport layers (internal/service) that must map a bad combination
// onto a 4xx response rather than crash the daemon.
func SlackSupported(p SlackPolicy, scheme Scheme) error {
	if p.Additive < 0 || math.IsNaN(p.Additive) || math.IsInf(p.Additive, 0) {
		return fmt.Errorf("core: SlackPolicy.Additive must be ≥ 0 and finite, got %v", p.Additive)
	}
	if p.Ratio != 0 && (p.Ratio < 1 || math.IsInf(p.Ratio, 0) || math.IsNaN(p.Ratio)) {
		return fmt.Errorf("core: SlackPolicy.Ratio must be ≥ 1 and finite (or 0 for none), got %v", p.Ratio)
	}
	if p.Additive > 0 || p.Auto {
		switch scheme {
		case SchemeNoop, SchemeTri, SchemeLAESA, SchemeTLAESA:
		default:
			return fmt.Errorf("core: scheme %v does not support additive slack (its bounds chain more than one triangle per derivation)", scheme)
		}
	}
	if p.Ratio > 1 {
		switch scheme {
		case SchemeNoop, SchemeTri:
		default:
			return fmt.Errorf("core: scheme %v does not support ratio slack (relaxation is limited to noop/tri)", scheme)
		}
	}
	return nil
}

// ParseSlackSpec parses the CLI slack specification:
//
//	-slack auto
//	-slack eps=X[,ratio=R]
//
// "auto" grows ε from the attached auditor's observed margin; the
// explicit form declares the near-metric contract up front. Range checks
// mirror SlackSupported; unknown and duplicate keys are rejected so a
// typo cannot silently run strict.
func ParseSlackSpec(spec string) (SlackPolicy, error) {
	if strings.TrimSpace(spec) == "auto" {
		return SlackPolicy{Auto: true}, nil
	}
	var p SlackPolicy
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok || val == "" {
			return SlackPolicy{}, fmt.Errorf("core: bad field %q in slack spec %q (want key=value, or the single word auto)", field, spec)
		}
		if seen[key] {
			return SlackPolicy{}, fmt.Errorf("core: duplicate key %q in slack spec %q", key, spec)
		}
		seen[key] = true
		switch key {
		case "eps":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return SlackPolicy{}, fmt.Errorf("core: bad eps %q: %v", val, err)
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return SlackPolicy{}, fmt.Errorf("core: eps must be ≥ 0 and finite, got %v", v)
			}
			p.Additive = v
		case "ratio":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return SlackPolicy{}, fmt.Errorf("core: bad ratio %q: %v", val, err)
			}
			if !(r >= 1) || math.IsInf(r, 0) {
				return SlackPolicy{}, fmt.Errorf("core: ratio must be ≥ 1 and finite, got %v", r)
			}
			p.Ratio = r
		default:
			return SlackPolicy{}, fmt.Errorf("core: unknown key %q in slack spec %q (known: eps, ratio; or auto)", key, spec)
		}
	}
	if !p.Active() {
		return SlackPolicy{}, fmt.Errorf("core: slack spec %q declares no slack (need eps > 0, ratio > 1, or auto)", spec)
	}
	return p, nil
}

// validateSlackScheme enforces the per-scheme soundness restrictions of
// an additive slack policy at construction time; see SlackPolicy.
func validateSlackScheme(p SlackPolicy, scheme Scheme) {
	if !(p.Additive > 0 || p.Auto) {
		return
	}
	switch scheme {
	case SchemeNoop, SchemeTri, SchemeLAESA, SchemeTLAESA:
	default:
		panic(fmt.Sprintf("core: scheme %v does not support additive slack: its bounds chain more than one triangle per derivation, so a per-triangle margin ε does not bound the interval error", scheme))
	}
}
