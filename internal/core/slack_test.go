package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"metricprox/internal/datasets"
	"metricprox/internal/faultmetric"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
)

// violatingSpace breaks the triangle inequality on one designated pair by
// inflating its distance.
type violatingSpace struct {
	metric.Space
	i, j int
	d    float64
}

func (v violatingSpace) Distance(i, j int) float64 {
	if (i == v.i && j == v.j) || (i == v.j && j == v.i) {
		return v.d
	}
	return v.Space.Distance(i, j)
}

// tightSpace returns a space whose honest distances are all ≤ 0.01·n, so
// a planted inflated pair is guaranteed to violate every triangle it
// closes.
func tightSpace(n int) metric.Space {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i) * 0.01}
	}
	return metric.NewVectors(pts, 2, 1)
}

func TestSlackRelaxesDerivedBounds(t *testing.T) {
	m := datasets.RandomMetric(16, 5)
	o := metric.NewOracle(m)
	eps := 0.1
	plain := NewSession(metric.NewOracle(m), SchemeTri)
	slacked := NewSession(o, SchemeTri, WithSlack(SlackPolicy{Additive: eps}))
	// Resolve the same edges in both sessions.
	for i := 1; i < 8; i++ {
		plain.Dist(0, i)
		slacked.Dist(0, i)
	}
	for i := 1; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			plb, pub := plain.Bounds(i, j)
			slb, sub := slacked.Bounds(i, j)
			wantLB := math.Max(0, plb-eps)
			wantUB := math.Min(slacked.MaxDistance(), pub+eps)
			if slb != wantLB || sub != wantUB {
				t.Fatalf("Bounds(%d,%d) = [%v,%v], want relaxed [%v,%v] of [%v,%v]",
					i, j, slb, sub, wantLB, wantUB, plb, pub)
			}
		}
	}
	// Resolved pairs stay exact: oracle values are not derived.
	lb, ub := slacked.Bounds(0, 3)
	if lb != ub || lb != m.Distance(0, 3) {
		t.Fatalf("resolved pair relaxed: [%v,%v] want exact %v", lb, ub, m.Distance(0, 3))
	}
	if lb, ub := slacked.Bounds(4, 4); lb != 0 || ub != 0 {
		t.Fatalf("self pair relaxed: [%v,%v]", lb, ub)
	}
}

func TestSlackBoundsBatchMatchesSingle(t *testing.T) {
	m := datasets.RandomMetric(20, 9)
	s := NewSession(metric.NewOracle(m), SchemeTri, WithSlack(SlackPolicy{Additive: 0.07}))
	for i := 1; i < 10; i++ {
		s.Dist(0, i)
	}
	var is, js []int
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			is = append(is, i)
			js = append(js, j)
		}
	}
	lb := make([]float64, len(is))
	ub := make([]float64, len(is))
	s.BoundsBatch(is, js, lb, ub)
	for q := range is {
		wlb, wub := s.Bounds(is[q], js[q])
		if lb[q] != wlb || ub[q] != wub {
			t.Fatalf("batch Bounds(%d,%d) = [%v,%v], single = [%v,%v]",
				is[q], js[q], lb[q], ub[q], wlb, wub)
		}
	}
}

// TestSlackSchemeGate pins the one per-scheme slack rule: additive and
// auto slack need intervals that chain a single triangle, ratio slack a
// scheme that derives with ρ. SlackSupported states it, and construction
// panics exactly when it returns an error, with that error.
func TestSlackSchemeGate(t *testing.T) {
	m := datasets.RandomMetric(10, 3)
	singleTriangle := map[Scheme]bool{SchemeNoop: true, SchemeTri: true, SchemeLAESA: true, SchemeTLAESA: true}
	relaxable := map[Scheme]bool{SchemeNoop: true, SchemeTri: true}
	policies := []struct {
		name    string
		p       SlackPolicy
		allowed map[Scheme]bool
	}{
		{"additive", SlackPolicy{Additive: 0.1}, singleTriangle},
		{"ratio", SlackPolicy{Ratio: 1.5}, relaxable},
		{"auto", SlackPolicy{Auto: true}, singleTriangle},
	}
	for sc := SchemeNoop; sc <= SchemeHybrid; sc++ {
		for _, pc := range policies {
			err := SlackSupported(pc.p, sc)
			if (err == nil) != pc.allowed[sc] {
				t.Errorf("SlackSupported(%s, %v) = %v, want allowed=%v", pc.name, sc, err, pc.allowed[sc])
			}
			func() {
				defer func() {
					r := recover()
					switch {
					case err == nil && r != nil:
						t.Errorf("%s slack on %v: construction panicked: %v", pc.name, sc, r)
					case err != nil && r == nil:
						t.Errorf("%s slack on %v: construction accepted what SlackSupported refuses: %v", pc.name, sc, err)
					case err != nil && r != err.Error():
						t.Errorf("%s slack on %v: panic %v, want SlackSupported's error %q", pc.name, sc, r, err)
					}
				}()
				NewSessionWithLandmarks(metric.NewOracle(m), sc, []int{0, 1}, WithSlack(pc.p))
			}()
		}
	}
}

func TestWithSlackValidation(t *testing.T) {
	for name, p := range map[string]SlackPolicy{
		"negative-eps": {Additive: -0.1},
		"nan-eps":      {Additive: math.NaN()},
		"inf-eps":      {Additive: math.Inf(1)},
		"sub-1-ratio":  {Ratio: 0.5},
		"inf-ratio":    {Ratio: math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: WithSlack accepted %+v", name, p)
				}
			}()
			WithSlack(p)
		}()
	}
}

func TestSlackOutcomeAndStats(t *testing.T) {
	m := datasets.RandomMetric(16, 7)
	s := NewSession(metric.NewOracle(m), SchemeTri, WithSlack(SlackPolicy{Additive: 0.05}))
	for i := 1; i < 16; i++ {
		s.Dist(0, i)
	}
	sawSlack := false
	for i := 1; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			for _, c := range []float64{0.05, 0.5, 1.0} {
				if _, _, out, _ := s.decide(obs.OpLessThan, i, j, -1, -1, c); out == OutcomeSlack {
					sawSlack = true
				} else if out == OutcomeBounds {
					t.Fatalf("bounds-settled outcome under active slack should be OutcomeSlack")
				}
			}
		}
	}
	if !sawSlack {
		t.Fatal("no comparison settled under slack; test exercises nothing")
	}
	st := s.Stats()
	if st.SlackResolved == 0 {
		t.Fatal("Stats.SlackResolved not counted")
	}
	if st.SlackResolved > st.SavedComparisons {
		t.Fatalf("SlackResolved %d exceeds SavedComparisons %d", st.SlackResolved, st.SavedComparisons)
	}
	if OutcomeSlack.String() != "slack" {
		t.Fatalf("OutcomeSlack.String() = %q", OutcomeSlack)
	}
}

// TestAggregateSlackClassification pins that the aggregate comparisons
// classify a bounds-settled verdict like the scalar ones: under an active
// slack policy, a SumLessThan or SumLess settled from derived (widened)
// intervals with no oracle call counts in SlackResolved as well as in
// SavedComparisons.
func TestAggregateSlackClassification(t *testing.T) {
	const n = 60
	s := NewSession(metric.NewOracle(datasets.SFPOIPlanar(n, 1)), SchemeTri,
		WithSlack(SlackPolicy{Additive: 1e-6}))
	s.Bootstrap(PickLandmarks(n, 6, 1))
	settled := 0
	check := func(what string, terms []Pair, f func()) {
		for _, p := range terms {
			if _, known := s.Known(p.A, p.B); known || p.A == p.B {
				return // an exact term: not every interval in the sum is derived
			}
		}
		before := s.Stats()
		f()
		after := s.Stats()
		if after.OracleCalls != before.OracleCalls {
			return // resolved its way to the verdict
		}
		settled++
		if saved := after.SavedComparisons - before.SavedComparisons; saved != 1 {
			t.Fatalf("%s %v: SavedComparisons +%d, want +1", what, terms, saved)
		}
		if slack := after.SlackResolved - before.SlackResolved; slack != 1 {
			t.Fatalf("%s %v settled from slack-widened bounds: SlackResolved +%d, want +1", what, terms, slack)
		}
	}
	for a := 0; a+3 < n; a++ {
		p, q := Pair{a, a + 1}, Pair{a + 2, a + 3}
		for _, c := range []float64{0.05, 0.5, 2} {
			check("SumLessThan", []Pair{p, q}, func() { s.SumLessThan([]Pair{p, q}, c) })
		}
		check("SumLess", []Pair{p, q}, func() { s.SumLess([]Pair{p}, []Pair{q}) })
	}
	if settled == 0 {
		t.Fatal("no aggregate settled from bounds; the test exercises nothing")
	}
}

func TestStrictModeDetectsViolation(t *testing.T) {
	evil := violatingSpace{Space: tightSpace(12), i: 2, j: 5, d: 0.9}
	aud := metric.NewAuditor(0)
	s := NewSession(metric.NewOracle(evil), SchemeTri, WithAuditor(aud))
	// Resolve a hub so the violating edge closes triangles when it lands.
	for i := 1; i < 12; i++ {
		s.Dist(0, i)
	}
	s.Dist(2, 5) // closes triangle (2,0,5): 0.9 > d(2,0)+d(0,5) ≈ 0.07
	err := s.ViolationErr()
	if err == nil {
		t.Fatal("strict mode did not surface the planted violation")
	}
	if !errors.Is(err, metric.ErrNonMetric) {
		t.Fatalf("ViolationErr %v does not wrap metric.ErrNonMetric", err)
	}
	var ve *metric.ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("ViolationErr %T is not *metric.ViolationError", err)
	}
	if st := s.Stats(); st.Violations == 0 {
		t.Fatal("Stats.Violations not mirrored from the auditor")
	}
	if s.Auditor() != aud {
		t.Fatal("Auditor() accessor lost the attached auditor")
	}
}

func TestAutoSlackGrowsWithObservedMargin(t *testing.T) {
	evil := violatingSpace{Space: tightSpace(12), i: 3, j: 7, d: 0.95}
	reg := obs.NewRegistry()
	s := NewSession(metric.NewOracle(evil), SchemeTri,
		WithSlack(SlackPolicy{Auto: true}),
		WithObserver(&obs.Observer{Registry: reg}))
	if s.Auditor() == nil {
		t.Fatal("Auto slack did not attach an auditor")
	}
	if got := s.SlackEps(); got != 0 {
		t.Fatalf("initial SlackEps = %v, want 0", got)
	}
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			s.Dist(i, j)
		}
	}
	margin := s.Auditor().Margin()
	if margin <= 0 {
		t.Fatal("planted violation not observed by the auditor")
	}
	if got := s.SlackEps(); got != margin {
		t.Fatalf("SlackEps = %v, want the observed margin %v", got, margin)
	}
	if got := reg.Gauge(obs.MetricSlackEps, obs.L("scheme", "tri")).Value(); got != margin {
		t.Fatalf("slack eps gauge = %v, want %v", got, margin)
	}
	// All pairs are resolved now; bounds must still be exact for them.
	if lb, ub := s.Bounds(3, 7); lb != 0.95 || ub != 0.95 {
		t.Fatalf("resolved violating pair relaxed: [%v,%v]", lb, ub)
	}
}

// TestSharedSessionSlackSurface resolves every pair from several
// goroutines at once under Auto slack: the escalated ε the session serves
// must be the auditor's observed margin, whichever goroutine closed the
// violating triangle.
func TestSharedSessionSlackSurface(t *testing.T) {
	evil := violatingSpace{Space: tightSpace(10), i: 1, j: 8, d: 0.95}
	s := NewSession(metric.NewOracle(evil), SchemeTri, WithSlack(SlackPolicy{Auto: true}))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 10; i += 4 {
				for j := 0; j < 10; j++ {
					if i != j {
						s.Dist(i, j)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if margin := s.Auditor().Margin(); margin <= 0 || s.SlackEps() != margin {
		t.Fatalf("SlackEps = %v, want the observed margin %v > 0", s.SlackEps(), margin)
	}
}

func TestSlackWithFaultmetricPerturbation(t *testing.T) {
	// End-to-end: the injector's MarginBound is a valid Additive slack —
	// every relaxed interval contains the perturbed oracle's value.
	n := 20
	base := datasets.RandomMetric(n, 11)
	cfg := faultmetric.Config{Seed: 13, NearMetricEps: 0.2}
	inj := faultmetric.New(base, cfg)
	s := NewFallibleSession(inj, SchemeTri,
		WithSlack(SlackPolicy{Additive: cfg.MarginBound()}))
	for i := 1; i < n; i += 2 {
		if _, err := s.DistErr(0, i); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lb, ub := s.Bounds(i, j)
			d, err := inj.DistanceCtx(ctx, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if d < lb-1e-12 || d > ub+1e-12 {
				t.Fatalf("relaxed interval [%v,%v] excludes true d(%d,%d)=%v", lb, ub, i, j, d)
			}
		}
	}
}

func TestParseSlackSpec(t *testing.T) {
	cases := []struct {
		spec string
		want SlackPolicy
		ok   bool
	}{
		{"auto", SlackPolicy{Auto: true}, true},
		{" auto ", SlackPolicy{Auto: true}, true},
		{"eps=0.1", SlackPolicy{Additive: 0.1}, true},
		{"eps=0.1,ratio=1.05", SlackPolicy{Additive: 0.1, Ratio: 1.05}, true},
		{"ratio=2", SlackPolicy{Ratio: 2}, true},
		{"", SlackPolicy{}, false},                // no slack declared
		{"eps=0", SlackPolicy{}, false},           // inactive
		{"ratio=1", SlackPolicy{}, false},         // inactive
		{"eps=-0.1", SlackPolicy{}, false},        // out of range
		{"ratio=0.5", SlackPolicy{}, false},       // out of range
		{"eps=NaN", SlackPolicy{}, false},         // not finite
		{"eps=0.1,eps=0.2", SlackPolicy{}, false}, // duplicate key
		{"epsilon=0.1", SlackPolicy{}, false},     // unknown key
		{"eps", SlackPolicy{}, false},             // not key=value
	}
	for _, c := range cases {
		got, err := ParseSlackSpec(c.spec)
		if c.ok != (err == nil) {
			t.Errorf("ParseSlackSpec(%q): err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseSlackSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}
