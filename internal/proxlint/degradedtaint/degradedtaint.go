// Package degradedtaint defines an analyzer that keeps degraded distance
// estimates out of durable and wire-visible state.
//
// When the fallible oracle is exhausted, core.Session.Dist (and the
// proxclient mirror) fall back to the bounds-midpoint estimate
// (lb+ub)/2 — an approximation that is fine to return to a caller that
// opted into degraded answers, but poisonous anywhere the library treats
// distances as exact: committed pgraph edges (the paper's
// output-preservation guarantee assumes committed weights are oracle
// results), cachestore writes (a cached estimate replays as truth
// forever), and api.WireFloat responses built from values the handler
// believed were resolved.
//
// The analyzer taints the result of every bounds-midpoint estimator — any
// method named "estimate" with signature func(int, int) float64 — and
// propagates with the dataflow engine. Functions that can return a
// tainted float64 export a "degraded" fact (core.Session.Dist earns one
// automatically), so the taint follows calls across package boundaries.
// The analysis is lintutil.Taint, shared with slackescape. Sinks:
//
//   - (pgraph.Graph).AddEdge weight arguments, and abstract AddEdge
//     methods of the same shape;
//   - any argument of a call into internal/cachestore;
//   - conversion to api.WireFloat.
//
// This is the load-bearing precursor to the weak/strong dual-oracle tier
// (ROADMAP): weak values will reuse exactly this discipline.
package degradedtaint

import (
	"go/types"

	"metricprox/internal/analysis"
	"metricprox/internal/proxlint/lintutil"
)

// Analyzer flags degraded estimate values flowing into edge commits,
// cache writes, or wire responses.
var Analyzer = &analysis.Analyzer{
	Name: "degradedtaint",
	Doc: "values from degraded bounds-midpoint estimate paths must not flow into " +
		"pgraph edge commits, cachestore writes, or api.WireFloat responses",
	Run: (&lintutil.Taint{
		Label:    "degraded",
		Source:   isEstimator,
		WireMsg:  "degraded estimate converted to api.WireFloat; a caller cannot tell it from a resolved distance — send the bound interval or an explicit degraded marker instead",
		EdgeMsg:  "degraded estimate committed as a pgraph edge weight; committed edges must be oracle-resolved distances (output preservation)",
		CacheMsg: "degraded estimate written to cachestore; a cached estimate replays as an exact distance forever",
	}).Run,
}

// isEstimator reports whether f is a bounds-midpoint estimator: a method
// named "estimate" with signature func(int, int) float64. The naming
// contract covers core.Session.estimate and the proxclient mirror — and
// any future estimator, which is the point of matching the shape.
func isEstimator(f *types.Func) bool {
	if f == nil || f.Name() != "estimate" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	return isBasic(sig.Params().At(0).Type(), types.Int) &&
		isBasic(sig.Params().At(1).Type(), types.Int) &&
		isBasic(sig.Results().At(0).Type(), types.Float64)
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}
