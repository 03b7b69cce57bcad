package experiments

import (
	"fmt"
	"math/rand"

	"metricprox/internal/bktree"
	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/gnat"
	"metricprox/internal/metric"
	"metricprox/internal/mtree"
	"metricprox/internal/prox"
	"metricprox/internal/stats"
	"metricprox/internal/vptree"
)

func init() {
	register("ext6", "Edit-distance kNN: Session vs BK-tree, M-tree, VP-tree, GNAT", ext6)
}

// ext6 pits the framework against four classic metric indexes on the
// workload they were designed for — repeated kNN queries — under a
// genuinely expensive oracle (Levenshtein over DNA sequences). Every
// method's cost is its total distance computations: construction plus all
// queries.
func ext6(cfg Config) *stats.Table {
	n := 250
	if cfg.Quick {
		n = 100
	}
	if cfg.Full {
		n = 600
	}
	const seqLen = 40
	const k = 5
	_, space := datasets.DNA(n, seqLen, cfg.Seed)
	intDist := func(i, j int) int {
		return metric.Levenshtein(space.Items[i], space.Items[j])
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	queries := make([]int, 40)
	for i := range queries {
		queries[i] = rng.Intn(n)
	}

	t := &stats.Table{
		ID:      "ext6",
		Title:   fmt.Sprintf("%d-NN over %d DNA sequences (Levenshtein), 40 queries", k, n),
		Columns: []string{"Method", "Construction calls", "Query calls", "Total"},
	}

	{
		o := metric.NewOracle(space)
		s := core.NewSession(o, core.SchemeNoop)
		for _, q := range queries {
			prox.KNNRow(s, q, k)
		}
		t.AddRow("linear scan", "0", stats.Int(o.Calls()), stats.Int(o.Calls()))
	}
	{
		o := metric.NewOracle(space)
		s := core.NewSession(o, core.SchemeTri)
		boot := s.Bootstrap(core.PickLandmarks(n, logLandmarks(n), cfg.Seed))
		for _, q := range queries {
			prox.KNNRow(s, q, k)
		}
		t.AddRow("session+tri", stats.Int(boot), stats.Int(o.Calls()-boot), stats.Int(o.Calls()))
	}
	{
		var calls int64
		tree := bktree.Build(n, func(i, j int) int { calls++; return intDist(i, j) })
		build := calls
		for _, q := range queries {
			tree.NN(q, k)
		}
		t.AddRow("bk-tree", stats.Int(build), stats.Int(calls-build), stats.Int(calls))
	}
	{
		tree := mtree.Build(space)
		build := tree.Calls()
		for _, q := range queries {
			tree.NN(q, k)
		}
		t.AddRow("m-tree", stats.Int(build), stats.Int(tree.Calls()-build), stats.Int(tree.Calls()))
	}
	{
		tree := gnat.Build(space, cfg.Seed)
		build := tree.ConstructionCalls()
		var qcalls int64
		for _, q := range queries {
			_, c := tree.NN(q, k, func(x int) float64 { return space.Distance(q, x) }) //proxlint:allow oracleescape -- baseline query hook: the index does its own call accounting (c), outside the session framework by design
			qcalls += c
		}
		t.AddRow("gnat", stats.Int(build), stats.Int(qcalls), stats.Int(build+qcalls))
	}
	{
		tree := vptree.Build(space, cfg.Seed)
		build := tree.ConstructionCalls()
		var qcalls int64
		for _, q := range queries {
			_, c := tree.NN(q, k, func(x int) float64 { return space.Distance(q, x) }) //proxlint:allow oracleescape -- baseline query hook: the index does its own call accounting (c), outside the session framework by design
			qcalls += c
		}
		t.AddRow("vp-tree", stats.Int(build), stats.Int(qcalls), stats.Int(build+qcalls))
	}
	t.Note("The indexes amortise construction over many queries but cannot reuse knowledge across queries; the session accumulates every resolved distance, so its marginal query cost keeps falling.")
	return t
}
