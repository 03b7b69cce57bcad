package prox

import (
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

// TestStatsMatchOracleCalls cross-checks the two independent call counters:
// Session.Stats().OracleCalls (incremented by commitResolution inside the
// session) and metric.Oracle.Calls() (incremented by the oracle wrapper
// itself). The oracleescape analyzer guarantees statically that no code
// path reaches the oracle around the session; this test guarantees
// dynamically that the session's own bookkeeping never double-counts or
// drops a resolution across a full kNN + MST + PAM run.
func TestStatsMatchOracleCalls(t *testing.T) {
	m := datasets.SFPOI(70, 7)

	t.Run("sequential", func(t *testing.T) {
		o := metric.NewOracle(m)
		s := core.NewSession(o, core.SchemeTri)
		s.Bootstrap(core.PickLandmarks(s.N(), 6, 7))
		KNNGraph(s, 4)
		PrimMST(s)
		PAM(s, 5, 7)

		got, want := s.Stats().OracleCalls, o.Calls()
		if got != want {
			t.Fatalf("sequential: Stats.OracleCalls = %d, oracle counted %d", got, want)
		}
		if bs := s.Stats().BootstrapCalls; bs <= 0 || bs > got {
			t.Fatalf("sequential: BootstrapCalls = %d outside (0, %d]", bs, got)
		}
	})

	t.Run("shared", func(t *testing.T) {
		o := metric.NewOracle(m)
		sh := core.NewSession(o, core.SchemeTri)
		if _, err := sh.BootstrapErr(core.PickLandmarks(sh.N(), 6, 7)); err != nil {
			t.Fatal(err)
		}
		KNNGraphParallel(sh, 4, 4)
		BoruvkaMSTParallel(sh, 4)

		got, want := sh.Stats().OracleCalls, o.Calls()
		if got != want {
			t.Fatalf("shared: Stats.OracleCalls = %d, oracle counted %d", got, want)
		}
	})
}
