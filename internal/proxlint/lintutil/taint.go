package lintutil

import (
	"go/ast"
	"go/types"

	"metricprox/internal/analysis"
)

// Func pairs a function declaration with its object; function literals
// are analyzed as the body of their enclosing declaration.
type Func struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// Funcs returns every function declaration with a body in the pass's
// non-test files, in source order.
func Funcs(pass *analysis.Pass) []Func {
	var fns []Func
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fns = append(fns, Func{Decl: fd, Obj: obj})
		}
	}
	return fns
}

// Taint is a taint analyzer that keeps inexact float64 values out of
// durable and wire-visible state; an analyzer configures one and uses its
// Run. The result of every call Source accepts carries the taint, and the
// dataflow engine propagates it. A function that can return a tainted
// float64 exports a fact of kind Label, so the taint follows calls across
// package boundaries. A tainted value is reported where it reaches a sink:
//
//   - conversion to api.WireFloat (WireMsg);
//   - an argument of (pgraph.Graph).AddEdge, or of an abstract AddEdge
//     method of the same shape (EdgeMsg);
//   - any argument of a call into internal/cachestore (CacheMsg).
type Taint struct {
	// Label names both the taint and the exported fact.
	Label string
	// Source reports whether a call to f yields a tainted value.
	Source func(f *types.Func) bool
	// WireMsg, EdgeMsg and CacheMsg are the sinks' diagnostics.
	WireMsg, EdgeMsg, CacheMsg string
}

// Run is the configured analyzer's Run function.
func (t *Taint) Run(pass *analysis.Pass) error {
	fns := Funcs(pass)

	// Phase 1: which functions can return a tainted float64? Fixed point
	// seeded by the sources themselves and by imported facts; discoveries
	// are exported for downstream packages.
	tainted := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if tainted[fn.Obj] {
				continue
			}
			if t.returnsTainted(pass, fn, tainted) {
				tainted[fn.Obj] = true
				pass.ExportFact(fn.Obj, t.Label, "")
				changed = true
			}
		}
	}

	// Phase 2: report taint reaching a sink.
	for _, fn := range fns {
		t.reportFunc(pass, fn, tainted)
	}
	return nil
}

func (t *Taint) newTaint(pass *analysis.Pass, tainted map[*types.Func]bool) *analysis.TaintAnalysis {
	return &analysis.TaintAnalysis{
		Info: pass.TypesInfo,
		Source: func(e ast.Expr) string {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return ""
			}
			f := Callee(pass.TypesInfo, call)
			if f == nil {
				return ""
			}
			if t.Source(f) || tainted[f] || pass.HasFact(f, t.Label) {
				return t.Label
			}
			return ""
		},
	}
}

// returnsTainted reports whether fn can return a tainted float64.
func (t *Taint) returnsTainted(pass *analysis.Pass, fn Func, tainted map[*types.Func]bool) bool {
	found := false
	ta := t.newTaint(pass, tainted)
	ta.Visit = func(n ast.Node, st *analysis.TaintState) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found {
			return
		}
		for _, res := range ret.Results {
			if st.Label(res) != "" && isFloatExpr(pass.TypesInfo, res) {
				found = true
			}
		}
	}
	ta.Run(fn.Decl.Body)
	return found
}

func isFloatExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isBasic(tv.Type, types.Float64)
}

// reportFunc runs the sink checks over one function.
func (t *Taint) reportFunc(pass *analysis.Pass, fn Func, tainted map[*types.Func]bool) {
	ta := t.newTaint(pass, tainted)
	ta.Visit = func(n ast.Node, st *analysis.TaintState) {
		ast.Inspect(n, func(sub ast.Node) bool {
			if _, ok := sub.(*ast.FuncLit); ok {
				return false
			}
			call, ok := sub.(*ast.CallExpr)
			if !ok {
				return true
			}
			t.checkSinkCall(pass, st, call)
			return true
		})
	}
	ta.Run(fn.Decl.Body)
}

// checkSinkCall reports tainted arguments reaching one of the three
// sinks: WireFloat conversions, edge commits and cachestore calls.
func (t *Taint) checkSinkCall(pass *analysis.Pass, st *analysis.TaintState, call *ast.CallExpr) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if isWireFloat(tv.Type) && len(call.Args) == 1 && st.Label(call.Args[0]) != "" {
			pass.Reportf(call.Args[0].Pos(), "%s", t.WireMsg)
		}
		return
	}
	f := Callee(pass.TypesInfo, call)
	if f == nil {
		return
	}
	var msg string
	switch {
	case isAddEdge(f):
		msg = t.EdgeMsg
	case f.Pkg() != nil && InCachestorePackage(f.Pkg().Path()):
		msg = t.CacheMsg
	default:
		return
	}
	for _, arg := range call.Args {
		if st.Label(arg) != "" {
			pass.Reportf(arg.Pos(), "%s", msg)
		}
	}
}

// isAddEdge matches (pgraph.Graph).AddEdge and abstract AddEdge methods
// with the (int, int, float64) shape.
func isAddEdge(f *types.Func) bool {
	if f.Name() != "AddEdge" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if f.Pkg() != nil && InPgraphPackage(f.Pkg().Path()) {
		return true
	}
	return types.IsInterface(sig.Recv().Type()) && sig.Params().Len() == 3
}

// isWireFloat reports whether t is the api.WireFloat named type.
func isWireFloat(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "WireFloat" && obj.Pkg() != nil && InAPIPackage(obj.Pkg().Path())
}
