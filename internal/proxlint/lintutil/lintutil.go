// Package lintutil holds what the proxlint analyzers share: type-level
// pattern matching (identifying "metric-space-shaped" distance methods,
// resolving call targets, recognising the core session API), the
// per-package function collector, and the source-to-sink taint analysis
// that degradedtaint and slackescape configure.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// Callee returns the static *types.Func a call resolves to, or nil when
// the callee is dynamic (a function value) or a type conversion.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		return SelectedFunc(info, fun)
	}
	return nil
}

// SelectedFunc returns the method or package-level function named by the
// selector, or nil.
func SelectedFunc(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	if s, ok := info.Selections[sel]; ok {
		if f, ok := s.Obj().(*types.Func); ok {
			return f
		}
		return nil
	}
	// Package-qualified reference (pkg.Func).
	if f, ok := info.Uses[sel.Sel].(*types.Func); ok {
		return f
	}
	return nil
}

// IsSpaceDistance reports whether f is a distance resolution in the shape
// of metric.Space: a method named Distance with signature
// func(int, int) float64 whose receiver type also has Len() int. Matching
// structurally (rather than against the metric.Space interface object)
// catches the interface itself, every concrete space, metric.Oracle, and
// any future wrapper — anything through which an algorithm could pay for
// a distance without the session noticing.
func IsSpaceDistance(f *types.Func) bool {
	if f == nil || f.Name() != "Distance" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	if !isBasic(sig.Params().At(0).Type(), types.Int) ||
		!isBasic(sig.Params().At(1).Type(), types.Int) ||
		!isBasic(sig.Results().At(0).Type(), types.Float64) {
		return false
	}
	return hasIntLen(sig.Recv().Type(), f.Pkg())
}

// IsSpaceDistanceCtx reports whether f is a distance resolution in the
// shape of metric.FallibleOracle: a method named DistanceCtx with
// signature func(context.Context, int, int) (float64, error) whose
// receiver type also has Len() int. A raw DistanceCtx call bypasses the
// session layer exactly like a raw Distance call — the fallible transport
// chain (metric → faultmetric → resilient) is the only place it belongs.
func IsSpaceDistanceCtx(f *types.Func) bool {
	if f == nil || f.Name() != "DistanceCtx" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if sig.Params().Len() != 3 || sig.Results().Len() != 2 {
		return false
	}
	if !isContext(sig.Params().At(0).Type()) ||
		!isBasic(sig.Params().At(1).Type(), types.Int) ||
		!isBasic(sig.Params().At(2).Type(), types.Int) {
		return false
	}
	if !isBasic(sig.Results().At(0).Type(), types.Float64) ||
		!types.Identical(sig.Results().At(1).Type(), types.Universe.Lookup("error").Type()) {
		return false
	}
	return hasIntLen(sig.Recv().Type(), f.Pkg())
}

// hasIntLen reports whether recv has a method Len() int — the other half
// of the metric-space shape.
func hasIntLen(recv types.Type, pkg *types.Package) bool {
	obj, _, _ := types.LookupFieldOrMethod(recv, true, pkg, "Len")
	lf, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	lsig, ok := lf.Type().(*types.Signature)
	return ok && lsig.Params().Len() == 0 && lsig.Results().Len() == 1 &&
		isBasic(lsig.Results().At(0).Type(), types.Int)
}

func isContext(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// InCorePackage reports whether the path names the session layer
// (internal/core), matching both the real module path and testdata fakes.
func InCorePackage(path string) bool {
	return path == "metricprox/internal/core" || strings.HasSuffix(path, "internal/core")
}

// InServicePackage reports whether the path names the network service
// layer (internal/service), matching both the real module path and
// testdata fakes. Subpackages (internal/service/api is wire types only)
// deliberately do not match: they hold no sessions to leak from.
func InServicePackage(path string) bool {
	return path == "metricprox/internal/service" || strings.HasSuffix(path, "internal/service")
}

// sessionDistValued are the core-session methods whose results carry a
// raw resolved distance (rather than a comparison bit or an interval).
// Inside the service layer these are the only ways a handler can put an
// oracle value into a response, so the oracleescape service rule confines
// them to the audited handleDist* endpoints.
var sessionDistValued = map[string]bool{
	"Dist":          true,
	"DistErr":       true,
	"Known":         true,
	"DistIfLess":    true,
	"DistIfLessErr": true,
}

// IsSessionDistValued reports whether f is a core-session method that
// returns a raw resolved distance (see sessionDistValued). Matching by
// package path and method name covers core.Session, core.SharedSession,
// core.FallibleSession and the core.View interface alike.
func IsSessionDistValued(f *types.Func) bool {
	if f == nil || f.Pkg() == nil || !InCorePackage(f.Pkg().Path()) {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return sessionDistValued[f.Name()]
}

// InPgraphPackage reports whether the path names the proximity-graph
// store (internal/pgraph), matching both the real module path and
// testdata fakes.
func InPgraphPackage(path string) bool {
	return path == "metricprox/internal/pgraph" || strings.HasSuffix(path, "internal/pgraph")
}

// InCachestorePackage reports whether the path names the persistent
// distance cache (internal/cachestore), matching both the real module
// path and testdata fakes.
func InCachestorePackage(path string) bool {
	return path == "metricprox/internal/cachestore" || strings.HasSuffix(path, "internal/cachestore")
}

// InAPIPackage reports whether the path names the wire-type package
// (internal/service/api), matching both the real module path and testdata
// fakes.
func InAPIPackage(path string) bool {
	return path == "metricprox/internal/service/api" || strings.HasSuffix(path, "internal/service/api")
}

// InProxclientPackage reports whether the path names the service client
// (internal/proxclient), matching both the real module path and testdata
// fakes.
func InProxclientPackage(path string) bool {
	return path == "metricprox/internal/proxclient" || strings.HasSuffix(path, "internal/proxclient")
}

// oracleLayerSuffixes are the packages that make up the oracle transport
// chain: metric (the oracle itself), faultmetric (deterministic fault
// injection), and resilient (retry/backoff/circuit-breaking). Moving raw
// distance calls is these packages' entire job, so the escape discipline
// does not apply inside them — by construction, not by ad-hoc allowlist.
var oracleLayerSuffixes = []string{
	"internal/metric",
	"internal/faultmetric",
	"internal/resilient",
}

// InOracleLayer reports whether the path names a package of the oracle
// transport chain (see oracleLayerSuffixes).
func InOracleLayer(path string) bool {
	for _, suffix := range oracleLayerSuffixes {
		if path == "metricprox/"+suffix || strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// coreOracleEntrypoints are the core-session methods that may reach the
// oracle. Any call to one of these from another package is treated as
// oracle-reaching by lockheldoracle.
var coreOracleEntrypoints = map[string]bool{
	"Dist":            true,
	"Less":            true,
	"LessThan":        true,
	"DistIfLess":      true,
	"SumLessThan":     true,
	"SumLess":         true,
	"Bootstrap":       true,
	"GreedyLandmarks": true,

	// Error-propagating variants of the comparison API (fallible-oracle
	// subsystem) — same oracle reach as their legacy counterparts.
	"DistErr":           true,
	"LessErr":           true,
	"LessOutcome":       true,
	"LessThanErr":       true,
	"DistIfLessErr":     true,
	"BootstrapErr":      true,
	"oracleDistanceErr": true,

	// The comparison tail every method above adapts, and its degrading
	// wrapper (Session and SharedSession alike).
	"compare": true,
	"degrade": true,
}

// IsCoreOracleEntry reports whether f is a core-session method that can
// reach the distance oracle (directly or transitively). It matches by
// package path and method name so it works on core.Session,
// core.SharedSession, and the core.View interface alike.
func IsCoreOracleEntry(f *types.Func) bool {
	if f == nil || f.Pkg() == nil || !InCorePackage(f.Pkg().Path()) {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return coreOracleEntrypoints[f.Name()]
}
