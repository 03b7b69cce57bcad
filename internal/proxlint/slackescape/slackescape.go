// Package slackescape defines an analyzer that keeps ε-slack relaxed
// bounds out of durable and wire-visible state.
//
// Under a near-metric slack policy, core.Session.Bounds widens every
// derived interval through SlackPolicy.Relax: the endpoints it returns
// are deliberately NOT exact — they are the sound envelope
// [lb−ε, ub+ε] around the derived interval. That is fine for pruning
// decisions (the whole point of slack mode) but poisonous anywhere the
// library treats a float64 as an exact distance: committed pgraph edges
// (output preservation assumes committed weights are oracle results),
// cachestore writes (a cached relaxed endpoint replays as truth forever,
// and would then feed calibration as if the oracle had said it), and
// api.WireFloat responses on endpoints whose contract promises resolved
// values.
//
// The analyzer taints the results of every relaxation — any method named
// "Relax" with signature func(float64, float64, float64, float64)
// (float64, float64) — and propagates with the dataflow engine.
// Functions that can return a tainted float64 export a "slack" fact
// (core.Session.Bounds earns one automatically), so the taint follows
// calls across package boundaries. The analysis is lintutil.Taint,
// shared with degradedtaint. Sinks:
//
//   - (pgraph.Graph).AddEdge weight arguments, and abstract AddEdge
//     methods of the same shape;
//   - any argument of a call into internal/cachestore;
//   - conversion to api.WireFloat.
//
// Wire endpoints whose contract is "these are bounds" (the bounds
// handlers ship LB/UB as bounds, labeled as such, alongside the session
// ε) suppress the diagnostic with a //proxlint:allow directive carrying
// that rationale.
package slackescape

import (
	"go/types"

	"metricprox/internal/analysis"
	"metricprox/internal/proxlint/lintutil"
)

// Analyzer flags relaxed ε-slack bound values flowing into edge commits,
// cache writes, or wire responses.
var Analyzer = &analysis.Analyzer{
	Name: "slackescape",
	Doc: "ε-slack relaxed bound values must not flow into pgraph edge commits, " +
		"cachestore writes, or api.WireFloat responses",
	Run: (&lintutil.Taint{
		Label:    "slack",
		Source:   isRelax,
		WireMsg:  "relaxed ε-slack bound converted to api.WireFloat; a relaxed endpoint is not an exact distance — ship it only on an endpoint whose contract says bounds, with an allow directive saying so",
		EdgeMsg:  "relaxed ε-slack bound committed as a pgraph edge weight; committed edges must be oracle-resolved distances (output preservation)",
		CacheMsg: "relaxed ε-slack bound written to cachestore; a cached relaxed endpoint replays as an exact distance forever and would poison calibration",
	}).Run,
}

// isRelax reports whether f is an interval relaxation: a method named
// "Relax" with signature func(float64, float64, float64, float64)
// (float64, float64). The shape covers core.SlackPolicy.Relax — and any
// future relaxation, which is the point of matching the shape.
func isRelax(f *types.Func) bool {
	if f == nil || f.Name() != "Relax" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 4 || sig.Results().Len() != 2 {
		return false
	}
	for i := 0; i < 4; i++ {
		if !isBasic(sig.Params().At(i).Type(), types.Float64) {
			return false
		}
	}
	return isBasic(sig.Results().At(0).Type(), types.Float64) &&
		isBasic(sig.Results().At(1).Type(), types.Float64)
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}
