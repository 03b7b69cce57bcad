package experiments

import (
	"fmt"
	"reflect"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/faultmetric"
	"metricprox/internal/prox"
	"metricprox/internal/stats"
)

func init() {
	register("ext12", "Oracle-call savings vs declared slack ε under a near-metric oracle (kNN, Tri)", ext12)
}

// ext12 charts the price of near-metric robustness: a kNN-graph build
// over a deterministically perturbed near-metric oracle, at increasing
// declared slack ε. Every relaxed interval is wider by 2ε, so pruning
// power — the paper's whole savings story — decays as ε grows; that is
// the robustness/savings trade-off this table quantifies. The other axis
// is soundness: below the injector's violation margin the Tri bounds may
// silently cut off true distances and the build can diverge from the
// reference; at ε ≥ margin preservation is guaranteed (the chaos suite
// proves it bit-exactly), and this table shows what that guarantee
// costs in resolved pairs.
func ext12(cfg Config) *stats.Table {
	n, k := 64, 4
	if cfg.Quick {
		n = 32
	}
	if cfg.Full {
		n = 96
	}
	base := datasets.RandomMetric(n, cfg.Seed)
	fcfg := faultmetric.Config{Seed: cfg.Seed + 1, NearMetricEps: 0.1}
	margin := fcfg.MarginBound()

	// Reference: every comparison paid for exactly, over the same
	// perturbed space (the injector is a pure function of seed and pair,
	// so a fresh injector per run serves identical distances).
	refSession := core.NewFallibleSession(faultmetric.New(base, fcfg), core.SchemeNoop)
	ref := prox.KNNGraph(refSession, k)
	exhaustive := refSession.Stats().OracleCalls

	t := &stats.Table{
		ID:      "ext12",
		Title:   fmt.Sprintf("Savings vs declared slack ε (random metric, n=%d, k=%d, injected margin %.2g, Tri)", n, k, margin),
		Columns: []string{"ε / margin", "Oracle calls", "Calls vs exhaustive", "Slack-resolved", "Output preserved"},
	}

	for _, frac := range []float64{0, 0.25, 0.5, 1, 2} {
		eps := frac * margin
		var opts []core.Option
		if eps > 0 {
			opts = append(opts, core.WithSlack(core.SlackPolicy{Additive: eps}))
		}
		s := core.NewFallibleSession(faultmetric.New(base, fcfg), core.SchemeTri, opts...)
		got := prox.KNNGraph(s, k)
		st := s.Stats()
		preserved := "yes"
		if !reflect.DeepEqual(ref, got) {
			preserved = "NO"
		}
		t.AddRow(fmt.Sprintf("%.2f", frac), stats.Int(st.OracleCalls),
			fmt.Sprintf("%.1f%%", 100*float64(st.OracleCalls)/float64(exhaustive)),
			stats.Int(st.SlackResolved), preserved)
	}
	t.Note("ε is declared as a fraction of the injector's guaranteed violation margin. Rows below 1.00 run with less slack than the oracle's actual violations and are unsound — preservation there is luck, not guarantee; from 1.00 up, every relaxed interval provably contains the served distance and the output matches the exhaustive reference by construction. The calls column is the cost of that guarantee: each step widens every derived interval by 2ε and surrenders pruning power.")
	return t
}
