package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the forward dataflow half of the engine: def-use chains
// over one function body, and a taint-propagation fixed point across the
// CFG of cfg.go. The proxlint analyzers that need to reason about where a
// value *came from* (a borrowed pgraph row, a degraded bounds-midpoint
// estimate) configure a TaintAnalysis with their source/sink/clobber
// shapes and let the engine carry labels through assignments, branches,
// and loops. Cross-function and cross-package flow rides on the fact
// table (facts.go): an analyzer exports "this function returns a tainted
// value" and treats calls to fact-carrying functions as sources.

// DefUse records, for every object assigned or read in a function body,
// its definition sites and use sites in source order. The taint engine
// consults it for diagnostics ("borrowed at line N"); analyzers can use
// it directly for cheap liveness-style questions.
type DefUse struct {
	// Defs maps an object to the nodes that assign it: the AssignStmt,
	// ValueSpec, RangeStmt, or TypeSwitchStmt/Field that defines or
	// overwrites it.
	Defs map[types.Object][]ast.Node
	// Uses maps an object to every identifier that reads it (identifiers
	// in pure store position are excluded).
	Uses map[types.Object][]*ast.Ident
}

// ComputeDefUse walks one function body (or any subtree) and returns its
// def-use chains.
func ComputeDefUse(info *types.Info, root ast.Node) *DefUse {
	du := &DefUse{
		Defs: make(map[types.Object][]ast.Node),
		Uses: make(map[types.Object][]*ast.Ident),
	}
	stores := make(map[*ast.Ident]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := idObject(info, id); obj != nil {
						du.Defs[obj] = append(du.Defs[obj], n)
						stores[id] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				if obj := idObject(info, id); obj != nil {
					du.Defs[obj] = append(du.Defs[obj], n)
					stores[id] = true
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := idObject(info, id); obj != nil {
						du.Defs[obj] = append(du.Defs[obj], n)
						stores[id] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if obj := idObject(info, id); obj != nil {
					du.Defs[obj] = append(du.Defs[obj], n)
				}
			}
		}
		return true
	})
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || stores[id] {
			return true
		}
		if obj := idObject(info, id); obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				du.Uses[obj] = append(du.Uses[obj], id)
			}
		}
		return true
	})
	return du
}

func idObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// TaintAnalysis configures one run of the forward taint engine over a
// single function body. Labels are short strings; the empty label means
// untainted. All hooks except Info are optional.
type TaintAnalysis struct {
	Info *types.Info

	// Source returns the label an expression introduces by itself —
	// typically a call to a taint-producing function — or "".
	Source func(e ast.Expr) string

	// Clobber rewrites each live label when call executes; returning the
	// label unchanged means the call does not affect it. rowescape maps
	// "row" -> "stale" at every row-growing call.
	Clobber func(call *ast.CallExpr, label string) string

	// Element maps a container's label to the label of a value read out
	// of it (index, range value, field). The default keeps the label.
	Element func(container string) string

	// Join merges labels at CFG merge points and weak updates. The
	// default keeps a over b (labels are then effectively a may-set of
	// size one, which suits single-label analyses).
	Join func(a, b string) string

	// Visit, if set, is called during the reporting pass for every CFG
	// node in source order with the state reaching it. Sink checks
	// happen here.
	Visit func(n ast.Node, st *TaintState)
}

// TaintState is the engine's view of one program point: a label per
// tracked object plus the def-use chains of the function under analysis.
type TaintState struct {
	ta     *TaintAnalysis
	labels map[types.Object]string
	// DefUse holds the def-use chains of the analyzed body.
	DefUse *DefUse
}

// Of returns the label currently attached to obj.
func (st *TaintState) Of(obj types.Object) string { return st.labels[obj] }

// Label computes the taint label of an expression under the current
// state.
func (st *TaintState) Label(e ast.Expr) string {
	ta := st.ta
	switch e := e.(type) {
	case *ast.Ident:
		if obj := idObject(ta.Info, e); obj != nil {
			if l := st.labels[obj]; l != "" {
				return l
			}
		}
	case *ast.ParenExpr:
		return st.Label(e.X)
	case *ast.CallExpr:
		if tv, ok := ta.Info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: the label passes through unchanged.
			if len(e.Args) == 1 {
				return st.Label(e.Args[0])
			}
			return ""
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := ta.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				// The result holds the slice argument's elements and the
				// appended values, so it carries all their labels; a
				// spread argument (append(s, t...)) contributes what its
				// elements carry, as copies of them.
				out := ""
				for x, arg := range e.Args {
					l := st.Label(arg)
					if x > 0 && x == len(e.Args)-1 && e.Ellipsis.IsValid() {
						l = st.element(l)
					}
					out = st.join(out, l)
				}
				return out
			}
		}
		if ta.Source != nil {
			return ta.Source(e)
		}
	case *ast.UnaryExpr:
		return st.Label(e.X)
	case *ast.StarExpr:
		return st.element(st.Label(e.X))
	case *ast.BinaryExpr:
		return st.join(st.Label(e.X), st.Label(e.Y))
	case *ast.IndexExpr:
		return st.element(st.Label(e.X))
	case *ast.SliceExpr:
		return st.Label(e.X)
	case *ast.SelectorExpr:
		// A field read from a tainted composite; a package-qualified
		// reference has no interesting X label.
		return st.element(st.Label(e.X))
	case *ast.TypeAssertExpr:
		return st.Label(e.X)
	case *ast.CompositeLit:
		out := ""
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = st.join(out, st.Label(el))
		}
		return out
	}
	if ta.Source != nil {
		if l := ta.Source(e); l != "" {
			return l
		}
	}
	return ""
}

func (st *TaintState) join(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" || a == b {
		return a
	}
	if st.ta.Join != nil {
		return st.ta.Join(a, b)
	}
	return a
}

func (st *TaintState) element(container string) string {
	if container == "" {
		return ""
	}
	if st.ta.Element != nil {
		return st.ta.Element(container)
	}
	return container
}

// set strongly updates obj's label; the empty label deletes the entry so
// states stay small and comparable.
func (st *TaintState) set(obj types.Object, label string) {
	if obj == nil {
		return
	}
	if label == "" {
		delete(st.labels, obj)
	} else {
		st.labels[obj] = label
	}
}

// weaken joins label into obj's current label (weak update: stores
// through an index or field may or may not overwrite).
func (st *TaintState) weaken(obj types.Object, label string) {
	if obj == nil || label == "" {
		return
	}
	st.labels[obj] = st.join(st.labels[obj], label)
}

// Run performs the fixed-point taint computation over body and then, if
// Visit is set, a reporting pass in source order. It returns the def-use
// chains so callers can reuse them.
func (ta *TaintAnalysis) Run(body *ast.BlockStmt) *DefUse {
	cfg := BuildCFG(body)
	du := ComputeDefUse(ta.Info, body)

	in := make([]map[types.Object]string, len(cfg.Blocks))
	preds := make([][]int, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b.Index)
		}
	}

	// Worklist fixed point: propagate out-states along edges until
	// stable. Labels form a finite set per client, and join is monotone
	// (the default keeps existing labels), so this terminates.
	work := []int{0}
	in[0] = map[types.Object]string{}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		st := &TaintState{ta: ta, labels: cloneLabels(in[bi]), DefUse: du}
		for _, n := range cfg.Blocks[bi].Nodes {
			ta.transfer(st, n, nil)
		}
		out := st.labels
		for _, s := range cfg.Blocks[bi].Succs {
			merged, changed := mergeInto(st, in[s.Index], out)
			if changed {
				in[s.Index] = merged
				if !contains(work, s.Index) {
					work = append(work, s.Index)
				}
			}
		}
	}

	if ta.Visit != nil {
		for _, b := range cfg.Blocks {
			labels := in[b.Index]
			if labels == nil {
				labels = map[types.Object]string{} // unreachable block
			}
			st := &TaintState{ta: ta, labels: cloneLabels(labels), DefUse: du}
			for _, n := range b.Nodes {
				ta.transfer(st, n, ta.Visit)
			}
		}
	}
	return du
}

func cloneLabels(m map[types.Object]string) map[types.Object]string {
	out := make(map[types.Object]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeInto joins src into dst (nil dst means "not yet reached"),
// reporting whether dst changed.
func mergeInto(st *TaintState, dst, src map[types.Object]string) (map[types.Object]string, bool) {
	if dst == nil {
		return cloneLabels(src), true
	}
	changed := false
	for obj, l := range src {
		if merged := st.join(dst[obj], l); merged != dst[obj] {
			if !changed {
				dst = cloneLabels(dst)
				changed = true
			}
			dst[obj] = merged
		}
	}
	return dst, changed
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// transfer interprets one CFG node: visit hook first (sink checks see
// the state *before* the node's own effects), then assignments, then
// clobbers from any call the node contains.
func (ta *TaintAnalysis) transfer(st *TaintState, n ast.Node, visit func(ast.Node, *TaintState)) {
	if visit != nil {
		visit(n, st)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		ta.assign(st, n.Lhs, n.Rhs)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					ta.assign(st, lhs, vs.Values)
				}
			}
		}
	case *ast.RangeStmt:
		el := st.element(st.Label(n.X))
		if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
			st.set(idObject(ta.Info, id), el)
		}
		if id, ok := n.Key.(*ast.Ident); ok && id.Name != "_" {
			// Slice/array keys are indices (clean); map keys could carry
			// taint, but no in-repo invariant tracks map keys.
			st.set(idObject(ta.Info, id), "")
		}
	case ast.Stmt, ast.Expr:
		// Conditions and expression statements change no bindings.
	}
	if ta.Clobber != nil {
		ast.Inspect(n, func(sub ast.Node) bool {
			if _, ok := sub.(*ast.FuncLit); ok {
				return false // separate function; analyzed on its own
			}
			call, ok := sub.(*ast.CallExpr)
			if !ok {
				return true
			}
			for obj, l := range st.labels {
				if nl := ta.Clobber(call, l); nl != l {
					st.set(obj, nl)
				}
			}
			return true
		})
	}
}

// assign applies one (possibly multi-value) assignment to the state.
func (ta *TaintAnalysis) assign(st *TaintState, lhs, rhs []ast.Expr) {
	labels := make([]string, len(lhs))
	if len(rhs) == len(lhs) {
		for i, r := range rhs {
			labels[i] = st.Label(r)
		}
	} else if len(rhs) == 1 {
		// Tuple assignment: a call, type assertion, or map read feeds
		// every binding the same provenance.
		l := st.Label(rhs[0])
		for i := range labels {
			labels[i] = l
		}
	}
	for i, l := range lhs {
		switch l := ast.Unparen(l).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			st.set(idObject(ta.Info, l), labels[i])
		case *ast.IndexExpr:
			// xs[i] = tainted: the container may now hold the taint.
			if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
				st.weaken(idObject(ta.Info, id), labels[i])
			}
		case *ast.SelectorExpr:
			// p.f = tainted: a local composite may now hold the taint.
			if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
				st.weaken(idObject(ta.Info, id), labels[i])
			}
		case *ast.StarExpr:
			if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
				st.weaken(idObject(ta.Info, id), labels[i])
			}
		}
	}
}
