// Package oracleescape defines an analyzer that forbids resolving
// distances outside the session layer.
//
// The library's entire cost accounting — Stats.OracleCalls, the bound
// learning in the UPDATE step, the persistent cache — assumes that every
// expensive distance resolution flows through core.Session / core.View.
// A single stray metric.Oracle.Distance or metric.Space.Distance call in
// an algorithm silently breaks the paper's call-count guarantees while
// producing correct answers, which is exactly the kind of bug code review
// misses. The same goes for the fallible variant: a raw DistanceCtx call
// skips the session's memoisation, bound learning, and retry accounting
// alike. This analyzer makes the channel discipline mechanical: any
// metric-space-shaped Distance or DistanceCtx call (or method-value
// reference) outside the oracle transport chain (internal/metric,
// internal/faultmetric, internal/resilient), internal/core, a _test.go
// file, or an explicit //proxlint:allow oracleescape directive is a lint
// error.
//
// The service layer (internal/service) gets a second, stricter rule: the
// daemon's weak-oracle contract is that raw resolved distances cross the
// wire only through the audited Dist* functions (handleDistOp, the one
// executor every primitive endpoint runs its op through, and
// handleDistBatch — the one-bit and bounds endpoints ship only their own
// fields of the op's result, and every other endpoint answers with
// whole-problem results). So inside a
// package whose import path ends in internal/service, any call to — or
// method value of — a distance-valued core-session method (Dist,
// DistErr, Known, DistIfLess, DistIfLessErr) outside a function whose
// name starts with "handleDist" is flagged, keeping "which responses can
// contain oracle values" a greppable, mechanically enforced property.
package oracleescape

import (
	"go/ast"
	"go/types"
	"strings"

	"metricprox/internal/analysis"
	"metricprox/internal/proxlint/lintutil"
)

// Analyzer flags distance resolutions that bypass the session layer.
var Analyzer = &analysis.Analyzer{
	Name: "oracleescape",
	Doc: "forbid metric-space-shaped Distance / DistanceCtx calls outside the " +
		"oracle transport chain, internal/core, tests, and the explicit allowlist; " +
		"in internal/service, confine distance-valued session reads to the audited handleDist* endpoints",
	Run: run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if lintutil.InOracleLayer(path) || lintutil.InCorePackage(path) {
		return nil
	}
	inService := lintutil.InServicePackage(path)
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		// Selectors that are the callee of a call expression report as
		// calls; any other reference to the method is a method value
		// being passed around, which escapes just the same.
		callFuns := make(map[*ast.SelectorExpr]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					callFuns[sel] = true
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			f := lintutil.SelectedFunc(pass.TypesInfo, sel)
			if !lintutil.IsSpaceDistance(f) && !lintutil.IsSpaceDistanceCtx(f) {
				return true
			}
			recv := receiverTypeString(pass.TypesInfo, sel)
			if callFuns[sel] {
				pass.Reportf(sel.Sel.Pos(),
					"call to (%s).%s bypasses the session layer: resolve distances through core.Session/core.View so OracleCalls accounting and bound learning stay sound, or annotate with //proxlint:allow oracleescape -- <why>", recv, f.Name())
			} else {
				pass.Reportf(sel.Sel.Pos(),
					"method value (%s).%s escapes the session layer: pass a session-backed resolver instead, or annotate with //proxlint:allow oracleescape -- <why>", recv, f.Name())
			}
			return true
		})
		if inService {
			checkServiceAudit(pass, file, callFuns)
		}
	}
	return nil
}

// checkServiceAudit enforces the service-layer rule: distance-valued
// session reads may appear only inside the audited handleDist* handlers.
// Declarations are walked one by one so package-level initialisers are
// covered too; a closure inherits its enclosing declaration's audit
// status, which is exactly the handler-owns-its-helpers semantics the
// audit wants.
func checkServiceAudit(pass *analysis.Pass, file *ast.File, callFuns map[*ast.SelectorExpr]bool) {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "handleDist") {
			continue // audited Dist* endpoint: raw values are its contract
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			f := lintutil.SelectedFunc(pass.TypesInfo, sel)
			if !lintutil.IsSessionDistValued(f) {
				return true
			}
			recv := receiverTypeString(pass.TypesInfo, sel)
			if callFuns[sel] {
				pass.Reportf(sel.Sel.Pos(),
					"call to (%s).%s reads a raw oracle value inside the service layer: only the audited handleDist* endpoints may put distances in responses — route through them, or annotate with //proxlint:allow oracleescape -- <why>", recv, f.Name())
			} else {
				pass.Reportf(sel.Sel.Pos(),
					"method value (%s).%s leaks raw oracle values past the service audit: only the handleDist* endpoints may resolve distances — or annotate with //proxlint:allow oracleescape -- <why>", recv, f.Name())
			}
			return true
		})
	}
}

func receiverTypeString(info *types.Info, sel *ast.SelectorExpr) string {
	if s, ok := info.Selections[sel]; ok {
		return types.TypeString(s.Recv(), func(p *types.Package) string { return p.Name() })
	}
	return "unknown"
}
