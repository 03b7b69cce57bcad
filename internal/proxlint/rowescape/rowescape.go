// Package rowescape defines an analyzer that enforces the epoch contract
// of the zero-copy CSR adjacency store, statically.
//
// pgraph.Graph.Row returns slices that alias the store's shared slabs:
// they are valid only until the next AddEdge, which may relocate the row
// or compact the whole arena in place (internal/pgraph/csr.go documents
// the contract; nothing enforced it). This analyzer runs the forward
// taint engine over every function: values borrowed from Row carry a
// "row" label, any call that can grow the slab — AddEdge itself, or any
// function whose body transitively reaches AddEdge, discovered through
// cross-package "grows" facts — rewrites live labels to "stale", and the
// analyzer reports
//
//   - any read of a stale-labeled slice (a borrow used across a growing
//     call: the classic relocation use-after-free, minus the segfault),
//   - any store of a borrowed slice into a struct field, package-level
//     variable, or channel, and any borrowed slice handed to a goroutine
//     (escapes that outlive the borrow epoch unverifiably).
//
// Functions that return a borrowed slice are not violations; they export
// a "borrows" fact, so their callers' borrows are tracked with the same
// rules. Elements copied out of a borrowed slice (nbrs[k], weights[k])
// are scalar copies and carry no label.
//
// The analyzer skips internal/pgraph itself (the store manages its own
// slabs) and test files (which exercise epoch invalidation on purpose).
package rowescape

import (
	"go/ast"
	"go/types"

	"metricprox/internal/analysis"
	"metricprox/internal/proxlint/lintutil"
)

// Analyzer flags pgraph row borrows that escape or outlive a slab-growing
// call.
var Analyzer = &analysis.Analyzer{
	Name: "rowescape",
	Doc: "slices borrowed from pgraph.Graph.Row alias the CSR slab and die at the " +
		"next AddEdge; forbid storing them in fields/globals/channels/goroutines " +
		"or reading them across a call that can grow the slab",
	Run: run,
}

const (
	labelRow   = "row"   // aliases the slab, epoch-current
	labelStale = "stale" // aliases the slab, epoch possibly expired
)

func run(pass *analysis.Pass) error {
	fns := lintutil.Funcs(pass)

	// Phase 1: which functions can grow a slab? Fixed point over the
	// package's call structure, seeded by (pgraph.Graph).AddEdge and by
	// imported "grows" facts; every discovery is exported for downstream
	// packages.
	grows := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if grows[fn.Obj] {
				continue
			}
			found := false
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok && isGrowingCall(pass, grows, call) {
					found = true
				}
				return true
			})
			if found {
				grows[fn.Obj] = true
				pass.ExportFact(fn.Obj, "grows", "")
				changed = true
			}
		}
	}

	// Phase 2: which functions return a borrowed slice? Fixed point with
	// the taint engine, since a borrow can pass through locals before
	// being returned; each discovery becomes a "borrows" fact and a new
	// taint source for the next round.
	borrows := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if borrows[fn.Obj] {
				continue
			}
			if returnsBorrow(pass, fn, grows, borrows) {
				borrows[fn.Obj] = true
				pass.ExportFact(fn.Obj, "borrows", "")
				changed = true
			}
		}
	}

	// Phase 3: report escapes and stale uses. The store's own package is
	// exempt — it manages the slabs the borrows alias.
	if lintutil.InPgraphPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, fn := range fns {
		reportFunc(pass, fn, grows, borrows)
	}
	return nil
}

// isGrowingCall reports whether the call can relocate or compact a CSR
// slab: (pgraph.Graph).AddEdge, a function already known (locally or by
// imported fact) to grow, or an abstract method named AddEdge with the
// (int, int, float64) shape — the conservative answer for interface
// dispatch.
func isGrowingCall(pass *analysis.Pass, grows map[*types.Func]bool, call *ast.CallExpr) bool {
	f := lintutil.Callee(pass.TypesInfo, call)
	if f == nil {
		return false
	}
	if f.Name() == "AddEdge" {
		if f.Pkg() != nil && lintutil.InPgraphPackage(f.Pkg().Path()) {
			return true
		}
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil &&
			types.IsInterface(sig.Recv().Type()) && sig.Params().Len() == 3 {
			return true
		}
	}
	return grows[f] || pass.HasFact(f, "grows")
}

// newTaint configures the engine with rowescape's shapes.
func newTaint(pass *analysis.Pass, grows, borrows map[*types.Func]bool) *analysis.TaintAnalysis {
	return &analysis.TaintAnalysis{
		Info: pass.TypesInfo,
		Source: func(e ast.Expr) string {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return ""
			}
			f := lintutil.Callee(pass.TypesInfo, call)
			if f == nil {
				return ""
			}
			if f.Name() == "Row" && f.Pkg() != nil && lintutil.InPgraphPackage(f.Pkg().Path()) {
				if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
					return labelRow
				}
			}
			if borrows[f] || pass.HasFact(f, "borrows") {
				return labelRow
			}
			return ""
		},
		Clobber: func(call *ast.CallExpr, label string) string {
			if label == labelRow && isGrowingCall(pass, grows, call) {
				return labelStale
			}
			return label
		},
		// Elements read out of a borrowed slice are scalar copies.
		Element: func(string) string { return "" },
		Join: func(a, b string) string {
			if a == labelStale || b == labelStale {
				return labelStale
			}
			return labelRow
		},
	}
}

// returnsBorrow reports whether fn can return a row-labeled value of
// slice type.
func returnsBorrow(pass *analysis.Pass, fn lintutil.Func, grows, borrows map[*types.Func]bool) bool {
	found := false
	ta := newTaint(pass, grows, borrows)
	ta.Visit = func(n ast.Node, st *analysis.TaintState) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found {
			return
		}
		for _, res := range ret.Results {
			if st.Label(res) == "" {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[res]; ok {
				if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
					found = true
				}
			}
		}
	}
	ta.Run(fn.Decl.Body)
	return found
}

// reportFunc runs the reporting pass over one function.
func reportFunc(pass *analysis.Pass, fn lintutil.Func, grows, borrows map[*types.Func]bool) {
	ta := newTaint(pass, grows, borrows)
	ta.Visit = func(n ast.Node, st *analysis.TaintState) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkStores(pass, st, n)
		case *ast.SendStmt:
			if st.Label(n.Value) != "" {
				pass.Reportf(n.Value.Pos(),
					"borrowed pgraph row slice sent across a channel; the receiver cannot know when the slab grows — copy the data instead")
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if st.Label(arg) != "" {
					pass.Reportf(arg.Pos(),
						"borrowed pgraph row slice passed to a goroutine that may outlive the borrow epoch; copy the data instead")
				}
			}
		}
		checkStaleUses(pass, st, n)
	}
	ta.Run(fn.Decl.Body)
}

// checkStores reports borrowed slices stored where they outlive the
// borrow: struct fields, package-level variables, and element stores into
// either.
func checkStores(pass *analysis.Pass, st *analysis.TaintState, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		} else {
			continue
		}
		if st.Label(rhs) == "" {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			pass.Reportf(l.Pos(),
				"borrowed pgraph row slice stored in a field; it aliases the CSR slab and dies at the next AddEdge — copy the data or re-borrow with Row at use time")
		case *ast.Ident:
			if obj := pass.TypesInfo.ObjectOf(l); obj != nil && obj.Parent() == pass.Pkg.Scope() {
				pass.Reportf(l.Pos(),
					"borrowed pgraph row slice stored in package-level variable %s; it aliases the CSR slab and dies at the next AddEdge", l.Name)
			}
		}
	}
}

// checkStaleUses reports reads of idents whose borrow predates a growing
// call, citing the borrow site from the def-use chains.
func checkStaleUses(pass *analysis.Pass, st *analysis.TaintState, n ast.Node) {
	ast.Inspect(n, func(sub ast.Node) bool {
		id, ok := sub.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil || st.Of(obj) != labelStale || !isUse(st.DefUse, obj, id) {
			return true
		}
		borrowed := ""
		if defs := st.DefUse.Defs[obj]; len(defs) > 0 {
			borrowed = " (borrowed at line " + itoa(pass.Fset.Position(defs[0].Pos()).Line) + ")"
		}
		pass.Reportf(id.Pos(),
			"pgraph row slice %s%s used after a call that can relocate or compact the slab; re-borrow with Row after any AddEdge", id.Name, borrowed)
		return true
	})
}

func isUse(du *analysis.DefUse, obj types.Object, id *ast.Ident) bool {
	for _, use := range du.Uses[obj] {
		if use == id {
			return true
		}
	}
	return false
}

func itoa(n int) string {
	if n <= 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
