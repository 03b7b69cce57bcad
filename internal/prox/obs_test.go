package prox

import (
	"math"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
)

// talliesByOutcome folds a tracer's exact tallies into per-outcome counts
// and checks every gap sum is finite on the way.
func talliesByOutcome(t *testing.T, tr *obs.Tracer) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, tl := range tr.Tallies() {
		if math.IsInf(tl.GapSum, 0) || math.IsNaN(tl.GapSum) {
			t.Fatalf("tally %s/%s has non-finite GapSum %g", tl.Op, tl.Outcome, tl.GapSum)
		}
		out[tl.Outcome] += tl.Count
	}
	return out
}

// TestObsReconciliation runs a real workload three ways at once —
// metric.Instrumented ground truth underneath, the legacy Stats snapshot,
// and the obs registry + tracer on top — and requires all three views to
// agree exactly. This is the dynamic half of the write-only-observation
// invariant: the obs layer must count precisely what happened, and
// attaching it must not change what happens.
func TestObsReconciliation(t *testing.T) {
	m := datasets.SFPOI(70, 7)

	t.Run("sequential", func(t *testing.T) {
		instr := metric.NewInstrumented(m, 0)
		o := metric.NewOracle(instr)
		observer := obs.NewObserver(true, 256, nil)
		s := core.NewSession(o, core.SchemeTri, core.WithObserver(observer))
		s.Bootstrap(core.PickLandmarks(s.N(), 6, 7))
		KNNGraph(s, 4)
		PrimMST(s)

		st := s.Stats()
		reg := observer.Registry
		scheme := obs.L("scheme", "tri")
		run := reg.Counter(obs.MetricOracleCalls, scheme, obs.L("phase", obs.PhaseRun)).Value()
		boot := reg.Counter(obs.MetricOracleCalls, scheme, obs.L("phase", obs.PhaseBootstrap)).Value()

		// Ground truth first: every oracle call resolved one distinct
		// pair, exactly once.
		if mx := instr.MaxPairCalls(); mx != 1 {
			t.Fatalf("Instrumented saw a pair resolved %d times; single-flight broke", mx)
		}
		if dp := int64(instr.DistinctPairs()); dp != st.OracleCalls {
			t.Fatalf("Instrumented resolved %d distinct pairs, Stats.OracleCalls = %d", dp, st.OracleCalls)
		}
		if o.Calls() != st.OracleCalls {
			t.Fatalf("oracle counted %d calls, Stats.OracleCalls = %d", o.Calls(), st.OracleCalls)
		}

		// Registry == Stats, field by field.
		if run+boot != st.OracleCalls || boot != st.BootstrapCalls {
			t.Fatalf("registry oracle calls run=%d boot=%d, Stats = %d (boot %d)", run, boot, st.OracleCalls, st.BootstrapCalls)
		}
		for _, c := range []struct {
			name string
			want int64
		}{
			{obs.MetricBoundProbes, st.BoundProbes},
			{obs.MetricSaved, st.SavedComparisons},
			{obs.MetricResolved, st.ResolvedComparisons},
			{obs.MetricCacheHits, st.CacheHits},
			{obs.MetricDegraded, 0},
			{obs.MetricStoreErrors, 0},
		} {
			if got := reg.Counter(c.name, scheme).Value(); got != c.want {
				t.Errorf("registry %s = %d, Stats says %d", c.name, got, c.want)
			}
		}

		// Tracer == Stats: each comparison emitted exactly one event, so
		// the per-outcome tallies are the Stats counters under new names.
		byOutcome := talliesByOutcome(t, observer.Tracer)
		if byOutcome[obs.OutcomeCache] != st.CacheHits {
			t.Errorf("trace cache events = %d, Stats.CacheHits = %d", byOutcome[obs.OutcomeCache], st.CacheHits)
		}
		if byOutcome[obs.OutcomeBounds] != st.SavedComparisons {
			t.Errorf("trace bounds events = %d, Stats.SavedComparisons = %d", byOutcome[obs.OutcomeBounds], st.SavedComparisons)
		}
		if byOutcome[obs.OutcomeOracle] != st.ResolvedComparisons {
			t.Errorf("trace oracle events = %d, Stats.ResolvedComparisons = %d", byOutcome[obs.OutcomeOracle], st.ResolvedComparisons)
		}
		if byOutcome[obs.OutcomeDegraded] != 0 || byOutcome[obs.OutcomeError] != 0 {
			t.Errorf("infallible run traced %d degraded / %d error events, want none",
				byOutcome[obs.OutcomeDegraded], byOutcome[obs.OutcomeError])
		}

		// Observed sessions time oracle round-trips: one histogram sample
		// per run-phase oracle comparison plus bootstrap resolutions is an
		// implementation detail, but the count can never exceed calls.
		h := reg.Histogram(obs.MetricOracleLatency, scheme).Snapshot()
		if h.Count == 0 || h.Count > st.OracleCalls {
			t.Errorf("latency histogram count = %d outside (0, %d]", h.Count, st.OracleCalls)
		}
	})

	t.Run("shared", func(t *testing.T) {
		instr := metric.NewInstrumented(m, 0)
		o := metric.NewOracle(instr)
		observer := obs.NewObserver(true, 256, nil)
		sh := core.NewSession(o, core.SchemeTri, core.WithObserver(observer))
		if _, err := sh.BootstrapErr(core.PickLandmarks(sh.N(), 6, 7)); err != nil {
			t.Fatal(err)
		}
		KNNGraphParallel(sh, 4, 4)

		st := sh.Stats()
		reg := observer.Registry
		scheme := obs.L("scheme", "tri")
		run := reg.Counter(obs.MetricOracleCalls, scheme, obs.L("phase", obs.PhaseRun)).Value()
		boot := reg.Counter(obs.MetricOracleCalls, scheme, obs.L("phase", obs.PhaseBootstrap)).Value()

		if mx := instr.MaxPairCalls(); mx != 1 {
			t.Fatalf("shared: Instrumented saw a pair resolved %d times; single-flight broke", mx)
		}
		if dp := int64(instr.DistinctPairs()); dp != st.OracleCalls {
			t.Fatalf("shared: Instrumented resolved %d distinct pairs, Stats.OracleCalls = %d", dp, st.OracleCalls)
		}
		if run+boot != st.OracleCalls {
			t.Fatalf("shared: registry oracle calls = %d, Stats = %d", run+boot, st.OracleCalls)
		}
		if got := reg.Counter(obs.MetricSaved, scheme).Value(); got != st.SavedComparisons {
			t.Errorf("shared: registry saved = %d, Stats = %d", got, st.SavedComparisons)
		}
		if got := reg.Counter(obs.MetricResolved, scheme).Value(); got != st.ResolvedComparisons {
			t.Errorf("shared: registry resolved = %d, Stats = %d", got, st.ResolvedComparisons)
		}

		byOutcome := talliesByOutcome(t, observer.Tracer)
		if byOutcome[obs.OutcomeOracle] != st.ResolvedComparisons {
			t.Errorf("shared: trace oracle events = %d, Stats.ResolvedComparisons = %d",
				byOutcome[obs.OutcomeOracle], st.ResolvedComparisons)
		}
		if byOutcome[obs.OutcomeBounds] != st.SavedComparisons {
			t.Errorf("shared: trace bounds events = %d, Stats.SavedComparisons = %d",
				byOutcome[obs.OutcomeBounds], st.SavedComparisons)
		}
	})
}

// TestSessionsSharingObserverKeepOwnStats runs two same-scheme sessions
// on one observer, as proxbench -obs does: each session's Stats must equal
// the same run unobserved, and each registry series the sum of their
// Stats.
func TestSessionsSharingObserverKeepOwnStats(t *testing.T) {
	m := datasets.SFPOI(70, 7)
	lms := core.PickLandmarks(70, 6, 7)
	run := func(work func(core.View), opts ...core.Option) core.Stats {
		s := core.NewSession(metric.NewOracle(m), core.SchemeTri, opts...)
		s.Bootstrap(lms)
		work(s)
		return s.Stats()
	}
	observer := obs.NewObserver(true, 0, nil)
	var sum core.Stats
	for _, work := range []func(core.View){
		func(s core.View) { KNNGraph(s, 4) },
		func(s core.View) { PrimMST(s) },
	} {
		plain := run(work)
		st := run(work, core.WithObserver(observer))
		if st != plain {
			t.Fatalf("observed session Stats %+v, unobserved %+v", st, plain)
		}
		sum.OracleCalls += st.OracleCalls
		sum.BootstrapCalls += st.BootstrapCalls
		sum.BoundProbes += st.BoundProbes
		sum.SavedComparisons += st.SavedComparisons
		sum.ResolvedComparisons += st.ResolvedComparisons
		sum.CacheHits += st.CacheHits
	}
	reg := observer.Registry
	scheme := obs.L("scheme", "tri")
	runCalls := reg.Counter(obs.MetricOracleCalls, scheme, obs.L("phase", obs.PhaseRun)).Value()
	boot := reg.Counter(obs.MetricOracleCalls, scheme, obs.L("phase", obs.PhaseBootstrap)).Value()
	if runCalls+boot != sum.OracleCalls || boot != sum.BootstrapCalls {
		t.Fatalf("registry oracle calls run=%d boot=%d, summed Stats %d (boot %d)", runCalls, boot, sum.OracleCalls, sum.BootstrapCalls)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{obs.MetricBoundProbes, sum.BoundProbes},
		{obs.MetricSaved, sum.SavedComparisons},
		{obs.MetricResolved, sum.ResolvedComparisons},
		{obs.MetricCacheHits, sum.CacheHits},
	} {
		if got := reg.Counter(c.name, scheme).Value(); got != c.want {
			t.Errorf("registry %s = %d, summed Stats %d", c.name, got, c.want)
		}
	}
}

// TestObserverDoesNotChangeOutput is the output-preservation half: the
// same seeded workload with and without full observation must produce
// bit-identical results and identical call counts.
func TestObserverDoesNotChangeOutput(t *testing.T) {
	m := datasets.SFPOI(80, 11)
	runOnce := func(observer *obs.Observer) (float64, int64) {
		o := metric.NewOracle(m)
		var opts []core.Option
		if observer != nil {
			opts = append(opts, core.WithObserver(observer))
		}
		s := core.NewSession(o, core.SchemeTri, opts...)
		s.Bootstrap(core.PickLandmarks(s.N(), 6, 11))
		return PrimMST(s).Weight, s.Stats().OracleCalls
	}
	wPlain, cPlain := runOnce(nil)
	wObs, cObs := runOnce(obs.NewObserver(true, 0, nil))
	// floatcmp skips test files, so this deliberate bit-exact
	// output-preservation check needs no allow directive.
	if wPlain != wObs {
		t.Fatalf("MST weight changed under observation: %v vs %v", wPlain, wObs)
	}
	if cPlain != cObs {
		t.Fatalf("oracle calls changed under observation: %d vs %d", cPlain, cObs)
	}
}

// BenchmarkObservation measures the wall-clock cost of observation on a
// full Prim build (the ≤5% overhead budget of DESIGN.md §8). Run with:
//
//	go test ./internal/prox -bench Observation -benchtime 10x
func BenchmarkObservation(b *testing.B) {
	m := datasets.SFPOI(200, 3)
	lms := core.PickLandmarks(200, 8, 3)
	run := func(b *testing.B, mk func() []core.Option) {
		for i := 0; i < b.N; i++ {
			s := core.NewSession(metric.NewOracle(m), core.SchemeTri, mk()...)
			s.Bootstrap(lms)
			PrimMST(s)
		}
	}
	b.Run("baseline", func(b *testing.B) {
		run(b, func() []core.Option { return nil })
	})
	b.Run("metrics", func(b *testing.B) {
		run(b, func() []core.Option {
			return []core.Option{core.WithObserver(obs.NewObserver(false, 0, nil))}
		})
	})
	b.Run("metrics+trace", func(b *testing.B) {
		run(b, func() []core.Option {
			return []core.Option{core.WithObserver(obs.NewObserver(true, 0, nil))}
		})
	})
}
