// Package commitonce defines an analyzer that keeps oracle round-trips
// and their bookkeeping in lockstep.
//
// Session.oracleDistanceErr (and historically oracleDistance) performs
// the raw oracle call with no accounting; Session.commitResolution
// records exactly one resolution (statistics, partial graph, bound
// scheme, persistent store). The split exists so a Session can release
// its lock around the round-trip — but it also means the
// compiler no longer guarantees the pairing. A path that calls the
// round-trip without committing leaks an uncounted, unlearned resolution
// (Stats.OracleCalls undercounts and the bound scheme never tightens); a
// path that commits without a round-trip double-counts. This analyzer
// requires every function that touches either side to contain exactly
// one round-trip call followed by exactly one commitResolution call.
// (A failed round-trip that commits nothing still satisfies the pairing:
// the rule is one-to-one between call sites, not executions.)
package commitonce

import (
	"go/ast"
	"go/token"

	"metricprox/internal/analysis"
	"metricprox/internal/proxlint/lintutil"
)

// Analyzer enforces the one-to-one round-trip/commitResolution pairing.
var Analyzer = &analysis.Analyzer{
	Name: "commitonce",
	Doc: "require every resolution path to pair exactly one oracle round-trip " +
		"(oracleDistance/oracleDistanceErr) with exactly one commitResolution " +
		"call, in that order",
	Run: run,
}

// roundTripNames are the raw, accounting-free oracle round-trip
// primitives. oracleDistance is the infallible original; oracleDistanceErr
// is its error-propagating successor in the fallible-oracle subsystem.
var roundTripNames = map[string]bool{
	"oracleDistance":    true,
	"oracleDistanceErr": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if roundTripNames[name] || name == "commitResolution" {
				continue // the primitives themselves
			}
			var oracleCalls, commitCalls []token.Pos
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch f := lintutil.Callee(pass.TypesInfo, call); {
				case f != nil && roundTripNames[f.Name()]:
					oracleCalls = append(oracleCalls, call.Pos())
				case f != nil && f.Name() == "commitResolution":
					commitCalls = append(commitCalls, call.Pos())
				}
				return true
			})
			switch {
			case len(oracleCalls) == 0 && len(commitCalls) == 0:
				// Function does not participate in resolution.
			case len(oracleCalls) == 1 && len(commitCalls) == 1:
				if commitCalls[0] < oracleCalls[0] {
					pass.Reportf(commitCalls[0],
						"%s commits a resolution before the oracle round-trip; commitResolution must follow the round-trip so the recorded distance is the one actually resolved", name)
				}
			case len(oracleCalls) > 1 || len(commitCalls) > 1:
				pass.Reportf(fd.Name.Pos(),
					"%s contains %d oracle round-trip and %d commitResolution calls; keep exactly one pair per function so the pairing stays mechanically checkable", name, len(oracleCalls), len(commitCalls))
			case len(oracleCalls) == 1:
				pass.Reportf(oracleCalls[0],
					"%s performs an oracle round-trip without a matching commitResolution: the round-trip would be uncounted in Stats.OracleCalls and invisible to the bound scheme", name)
			default:
				pass.Reportf(commitCalls[0],
					"%s calls commitResolution without a matching oracle round-trip: committing an unresolved pair double-counts Stats.OracleCalls", name)
			}
		}
	}
	return nil
}
