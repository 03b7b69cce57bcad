package prox

import (
	"errors"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/faultmetric"
	"metricprox/internal/metric"
	"metricprox/internal/resilient"
)

// The chaos harness runs the paper's algorithms over a deterministically
// faulty oracle and asserts the robustness subsystem's two contracts:
//
//  1. Output preservation: a run that completes with OracleErr() == nil
//     is identical to the fault-free run — retries change the cost of a
//     resolution, never its value, and nothing unresolved is committed.
//  2. Bounded, accountable retries: the resilient layer's counters must
//     reconcile exactly with the injector's ground-truth injection
//     counts, and the retry traffic must stay within the policy budget.
//
// Schemes covered: noop (no bounds — every comparison pays the oracle),
// tri and splub (the two shared-graph schemes, loose and tight). DFT is
// excluded: it is specified for tiny inputs and resolves its pivot
// structure eagerly, so a chaos run degenerates to a bootstrap-abort
// test with no comparison traffic left to exercise; the bootstrap-abort
// path has its own test in internal/core.

// chaosSeed returns the fault-schedule seed, overridable via CHAOS_SEED
// so CI can sweep a seed matrix without a rebuild.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", env, err)
	}
	return seed
}

// chaosConfig is a fault schedule guaranteed to complete under
// chaosPolicy: at most 2 injected failures per pair against a budget of
// 4 attempts, with the breaker disabled so a burst of failures across
// many pairs cannot wedge the run. Roughly a third of first attempts
// misbehave.
func chaosConfig(seed int64) faultmetric.Config {
	return faultmetric.Config{
		Seed:               seed,
		TransientRate:      0.2,
		RateLimitRate:      0.08,
		CorruptRate:        0.08,
		MaxFailuresPerPair: 2,
	}
}

func chaosPolicy(seed int64) resilient.Policy {
	return resilient.Policy{
		MaxAttempts:      4,
		BaseDelay:        time.Microsecond,
		MaxDelay:         8 * time.Microsecond,
		FailureThreshold: -1, // breaker disabled: completion is the point here
		Seed:             seed,
	}
}

// chaosSession builds a session whose oracle chain is
// space → fault injector → resilient policy → session.
func chaosSession(m metric.Space, scheme core.Scheme, seed int64) (*core.Session, *faultmetric.Injector, *resilient.Oracle) {
	inj := faultmetric.New(m, chaosConfig(seed))
	ro := resilient.New(inj, chaosPolicy(seed))
	return core.NewFallibleSession(ro, scheme), inj, ro
}

var chaosSchemes = []core.Scheme{core.SchemeNoop, core.SchemeTri, core.SchemeSPLUB}

// chaosResult bundles one algorithm sweep's outputs for comparison.
type chaosResult struct {
	knn [][]Neighbor
	mst MST
	pam Clustering
}

func runAlgorithms(s *core.Session) chaosResult {
	return chaosResult{
		knn: KNNGraph(s, 3),
		mst: PrimMST(s),
		pam: PAM(s, 4, 99),
	}
}

// crossCheck reconciles the resilient layer's account against the
// injector's ground truth. It assumes the run completed (every needed
// resolution eventually succeeded), which the caller asserts via
// OracleErr.
func crossCheck(t *testing.T, label string, st core.Stats, inj *faultmetric.Injector, ro *resilient.Oracle) {
	t.Helper()
	ic := inj.Counters()
	pc := ro.Counters()
	if pc.Attempts != ic.Calls {
		t.Errorf("%s: policy made %d attempts but injector saw %d calls", label, pc.Attempts, ic.Calls)
	}
	if pc.Retries != ic.BadResponses() {
		t.Errorf("%s: policy retried %d times but injector injected %d bad responses",
			label, pc.Retries, ic.BadResponses())
	}
	if st.Retries != pc.Retries || st.Timeouts != pc.Timeouts || st.BreakerOpens != pc.BreakerOpens {
		t.Errorf("%s: session stats %+v do not mirror policy counters %+v", label, st, pc)
	}
	if pc.Successes != st.OracleCalls {
		t.Errorf("%s: %d policy successes but %d session oracle calls", label, pc.Successes, st.OracleCalls)
	}
	// Bounded retries: the budget caps the traffic amplification.
	maxAttempts := int64(chaosPolicy(0).Normalize().MaxAttempts)
	if pc.Attempts > pc.Successes*maxAttempts {
		t.Errorf("%s: %d attempts for %d successes exceeds the ×%d budget",
			label, pc.Attempts, pc.Successes, maxAttempts)
	}
	if st.DegradedAnswers != 0 {
		t.Errorf("%s: completed run reported %d degraded answers", label, st.DegradedAnswers)
	}
}

// TestChaosOutputPreservation is the harness's core assertion: under a
// seeded fault schedule that retries can always beat, every algorithm ×
// scheme combination produces output identical to the fault-free run.
func TestChaosOutputPreservation(t *testing.T) {
	seed := chaosSeed(t)
	const n = 48
	m := datasets.RandomMetric(n, 17)

	for _, scheme := range chaosSchemes {
		clean := runAlgorithms(core.NewSession(metric.NewOracle(m), scheme))

		s, inj, ro := chaosSession(m, scheme, seed)
		faulty := runAlgorithms(s)
		if err := s.OracleErr(); err != nil {
			t.Fatalf("scheme %v: chaos run did not complete: %v", scheme, err)
		}
		if !reflect.DeepEqual(clean.knn, faulty.knn) {
			t.Errorf("scheme %v: kNN graph diverged under faults", scheme)
		}
		if clean.mst.Weight != faulty.mst.Weight || !sameEdges(clean.mst.Edges, faulty.mst.Edges) {
			t.Errorf("scheme %v: MST diverged under faults (weight %v vs %v)",
				scheme, clean.mst.Weight, faulty.mst.Weight)
		}
		if !reflect.DeepEqual(clean.pam, faulty.pam) {
			t.Errorf("scheme %v: PAM clustering diverged under faults", scheme)
		}
		if inj.Counters().BadResponses() == 0 {
			t.Errorf("scheme %v: fault schedule injected nothing — harness is vacuous", scheme)
		}
		crossCheck(t, scheme.String(), s.Stats(), inj, ro)
	}
}

// TestChaosParallelOutputPreservation repeats the preservation assertion
// for the parallel builders over one shared Session: concurrent retries,
// shared single-flight failures, and commit ordering must still produce
// the sequential fault-free output. Run under -race this doubles as the
// data-race check on the failure paths.
func TestChaosParallelOutputPreservation(t *testing.T) {
	seed := chaosSeed(t)
	const n, workers = 40, 4
	m := datasets.RandomMetric(n, 23)

	for _, scheme := range chaosSchemes {
		clean := runAlgorithms(core.NewSession(metric.NewOracle(m), scheme))

		s, inj, _ := chaosSession(m, scheme, seed)
		knn := KNNGraphParallel(s, 3, workers)
		if !reflect.DeepEqual(clean.knn, knn) {
			t.Errorf("scheme %v: parallel kNN diverged under faults", scheme)
		}

		s2, _, _ := chaosSession(m, scheme, seed)
		mst := BoruvkaMSTParallel(s2, workers)
		cleanBoruvka := BoruvkaMST(core.NewSession(metric.NewOracle(m), scheme))
		if mst.Weight != cleanBoruvka.Weight || !sameEdges(mst.Edges, cleanBoruvka.Edges) {
			t.Errorf("scheme %v: parallel Borůvka diverged under faults", scheme)
		}

		for _, sess := range []*core.Session{s, s2} {
			if err := sess.OracleErr(); err != nil {
				t.Fatalf("scheme %v: parallel chaos run did not complete: %v", scheme, err)
			}
		}
		if inj.Counters().BadResponses() == 0 {
			t.Errorf("scheme %v: parallel fault schedule injected nothing", scheme)
		}
	}
}

// TestChaosConcurrentMixedWorkload hammers one Session from many
// goroutines with mixed comparison traffic under faults — the shape most
// likely to trip races in the failure paths of the single-flight map.
func TestChaosConcurrentMixedWorkload(t *testing.T) {
	seed := chaosSeed(t)
	const n, workers = 32, 8
	m := datasets.RandomMetric(n, 31)
	s, _, _ := chaosSession(m, core.SchemeTri, seed)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				j, k, l := (i+w+1)%n, (i+2*w+3)%n, (i+5)%n
				s.Less(i, j, k, l)
				s.LessThan(i, j, 0.5)
				if d, err := s.DistErr(i, k); err == nil {
					if want := m.Distance(i, k); d != want {
						t.Errorf("DistErr(%d,%d) = %v, want %v", i, k, d, want)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.OracleErr(); err != nil {
		t.Fatalf("mixed workload did not complete: %v", err)
	}
	// Every committed edge must be the exact backend distance.
	g := s.Graph()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w, ok := g.Weight(i, j); ok {
				if want := m.Distance(i, j); w != want {
					t.Fatalf("graph edge (%d,%d) = %v, want %v", i, j, w, want)
				}
			}
		}
	}
}

// TestChaosOutageDegradesGracefully puts the breaker in front of a
// permanently dying backend: after the outage begins, runs must still
// terminate, answers degrade (counted), the breaker opens at least once,
// and nothing inexact is ever committed to the graph.
func TestChaosOutageDegradesGracefully(t *testing.T) {
	const n = 32
	m := datasets.RandomMetric(n, 41)
	inj := faultmetric.New(m, faultmetric.Config{
		Seed:         chaosSeed(t),
		OutagePeriod: 1, // every call fails: the backend is gone
	})
	ro := resilient.New(inj, resilient.Policy{
		MaxAttempts:      2,
		BaseDelay:        time.Microsecond,
		MaxDelay:         4 * time.Microsecond,
		FailureThreshold: 3,
		Cooldown:         time.Hour, // stays open for the whole test
		Seed:             7,
	})
	s := core.NewFallibleSession(ro, core.SchemeTri)

	got := KNNGraph(s, 3) // must terminate despite a dead backend
	if len(got) != n {
		t.Fatalf("degraded kNN returned %d rows, want %d", len(got), n)
	}
	if s.OracleErr() == nil {
		t.Fatal("dead backend did not latch OracleErr")
	}
	st := s.Stats()
	if st.DegradedAnswers == 0 {
		t.Fatal("dead backend produced no degraded answers")
	}
	if st.BreakerOpens == 0 {
		t.Fatal("breaker never opened against a dead backend")
	}
	if ro.Ready() {
		t.Fatal("breaker reports ready mid-outage")
	}
	if st.OracleCalls != 0 {
		t.Fatalf("dead backend yielded %d committed resolutions", st.OracleCalls)
	}
	if m := s.Graph().M(); m != 0 {
		t.Fatalf("dead backend committed %d graph edges", m)
	}
	// Fast-fails must dominate once the breaker opens: the backend sees
	// far fewer calls than the session asked for.
	if pc := ro.Counters(); pc.FastFails == 0 {
		t.Fatalf("breaker open but no fast-fails recorded: %+v", pc)
	}
}

// nearMetricConfig is the chaos schedule for the near-metric tests: no
// failures, only deterministic downward perturbations with additive
// margin ≤ NearMetricEps. The perturbation is keyed on the pair alone, so
// two injectors with the same seed serve the identical near-metric
// regardless of call order — which is what lets a noop run over one
// injector be the bit-exact reference for a slacked run over another.
func nearMetricConfig(seed int64) faultmetric.Config {
	return faultmetric.Config{Seed: seed, NearMetricEps: 0.25}
}

// TestChaosNearMetricSlackPreserve is the ε-slack preservation theorem,
// end to end: over an oracle violating the triangle inequality with
// margin ≤ ε, a session declaring SlackPolicy{Additive: ε} produces
// kNN/MST/PAM output bit-identical to the no-bounds reference over the
// same perturbed space. (Identity with the *clean* space is impossible by
// construction — the perturbed values appear in the output — so the
// reference is "what every comparison paid for exactly would conclude
// about this near-metric".)
func TestChaosNearMetricSlackPreserve(t *testing.T) {
	seed := chaosSeed(t)
	const n = 48
	m := datasets.RandomMetric(n, 17)
	cfg := nearMetricConfig(seed)

	ref := runAlgorithms(core.NewFallibleSession(faultmetric.New(m, cfg), core.SchemeNoop))

	aud := metric.NewAuditor(0)
	inj := faultmetric.New(m, cfg)
	s := core.NewFallibleSession(inj, core.SchemeTri,
		core.WithSlack(core.SlackPolicy{Additive: cfg.MarginBound()}),
		core.WithAuditor(aud))
	got := runAlgorithms(s)
	if err := s.OracleErr(); err != nil {
		t.Fatalf("near-metric slack run did not complete: %v", err)
	}
	if !reflect.DeepEqual(ref.knn, got.knn) {
		t.Error("kNN graph diverged under declared slack")
	}
	if ref.mst.Weight != got.mst.Weight || !sameEdges(ref.mst.Edges, got.mst.Edges) {
		t.Errorf("MST diverged under declared slack (weight %v vs %v)", ref.mst.Weight, got.mst.Weight)
	}
	if !reflect.DeepEqual(ref.pam, got.pam) {
		t.Error("PAM clustering diverged under declared slack")
	}
	// Non-vacuity: the schedule actually perturbed distances, the session
	// actually settled comparisons from relaxed bounds, and the auditor
	// actually saw violations on committed triangles.
	if inj.Counters().Perturbations == 0 {
		t.Error("near-metric schedule perturbed nothing — harness is vacuous")
	}
	st := s.Stats()
	if st.SlackResolved == 0 {
		t.Error("no comparison was resolved under slack — harness is vacuous")
	}
	if st.Violations == 0 {
		t.Error("auditor observed no violations — harness is vacuous")
	}
	// And the injector kept its contract: observed margins never exceed
	// the declared bound (otherwise the preservation above was luck).
	if aud.Margin() > cfg.MarginBound()+1e-12 {
		t.Errorf("observed margin %v exceeds the declared bound %v", aud.Margin(), cfg.MarginBound())
	}
}

// TestChaosNearMetricStrictDetect runs the same perturbed oracle with an
// auditor but NO slack declaration: strict mode must surface the typed
// violation error, voiding the run's preservation guarantee instead of
// silently returning wrong answers.
func TestChaosNearMetricStrictDetect(t *testing.T) {
	seed := chaosSeed(t)
	const n = 48
	m := datasets.RandomMetric(n, 17)
	cfg := nearMetricConfig(seed)

	aud := metric.NewAuditor(0)
	s := core.NewFallibleSession(faultmetric.New(m, cfg), core.SchemeTri,
		core.WithAuditor(aud))
	runAlgorithms(s)

	err := s.ViolationErr()
	if err == nil {
		t.Fatal("strict mode did not detect the injected violations")
	}
	if !errors.Is(err, metric.ErrNonMetric) {
		t.Fatalf("ViolationErr %v does not wrap metric.ErrNonMetric", err)
	}
	var ve *metric.ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("ViolationErr %T is not *metric.ViolationError", err)
	}
	if ve.Margin <= 0 || ve.Margin > cfg.MarginBound() {
		t.Fatalf("latched margin %v outside (0, %v]", ve.Margin, cfg.MarginBound())
	}
	if st := s.Stats(); st.Violations == 0 {
		t.Fatal("Stats.Violations is zero despite a latched violation")
	}
}
