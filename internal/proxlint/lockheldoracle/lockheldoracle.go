// Package lockheldoracle defines an analyzer that forbids oracle
// round-trips while a mutex acquired in the enclosing function is held.
//
// The concurrency design hinges on one invariant: the core.Session lock
// protects only in-memory bookkeeping and no comparison holds it across
// an oracle call. The oracle dominates cost (milliseconds to seconds per
// call), so a single code path that resolves a distance under the lock
// re-serialises every worker and silently erases the parallel speedup —
// without failing any test or tripping the race detector. This analyzer
// enforces the invariant mechanically: within each function it tracks
// sync.Mutex/RWMutex Lock/Unlock pairs and flags any call that can reach
// the oracle (directly, through a same-package helper, or through the
// core session API) while a lock is held. `defer mu.Unlock()` keeps the
// lock held for the remainder of the function, as at runtime.
package lockheldoracle

import (
	"go/ast"
	"go/types"

	"metricprox/internal/analysis"
	"metricprox/internal/proxlint/lintutil"
)

// Analyzer flags oracle-reaching calls made while a mutex is held.
var Analyzer = &analysis.Analyzer{
	Name: "lockheldoracle",
	Doc: "forbid calls that can reach the distance oracle while a sync.Mutex " +
		"or sync.RWMutex acquired in the enclosing function is still held",
	Run: run,
}

func run(pass *analysis.Pass) error {
	reach := reachability(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass, reach: reach, held: map[string]ast.Expr{}}
			w.block(fd.Body.List)
		}
	}
	return nil
}

// reachability computes the set of functions declared in this package
// whose bodies can reach an oracle round-trip: directly via a
// metric-space-shaped Distance call or a core session entrypoint, or
// transitively through same-package callees. Function literals are folded
// into their enclosing declaration, which over-approximates (a closure
// may run after the lock is released) but matches how closures are used
// here: inner loops invoked synchronously.
func reachability(pass *analysis.Pass) map[*types.Func]bool {
	type fn struct {
		obj   *types.Func
		body  *ast.BlockStmt
		calls []*types.Func
		seed  bool
	}
	var fns []*fn
	byObj := make(map[*types.Func]*fn)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			f := &fn{obj: obj, body: fd.Body}
			fns = append(fns, f)
			byObj[obj] = f
		}
	}
	for _, f := range fns {
		ast.Inspect(f.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := lintutil.Callee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if oracleSeed(callee) {
				f.seed = true
			} else if callee.Pkg() == pass.Pkg {
				f.calls = append(f.calls, callee)
			}
			return true
		})
	}
	reach := make(map[*types.Func]bool)
	for _, f := range fns {
		if f.seed {
			reach[f.obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if reach[f.obj] {
				continue
			}
			for _, c := range f.calls {
				if reach[c] {
					reach[f.obj] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// oracleSeed reports whether calling f is, by itself, an oracle
// round-trip risk: a raw space/oracle Distance or DistanceCtx call, or a
// core session entrypoint that may resolve distances.
func oracleSeed(f *types.Func) bool {
	return lintutil.IsSpaceDistance(f) || lintutil.IsSpaceDistanceCtx(f) ||
		lintutil.IsCoreOracleEntry(f)
}

// walker performs an abstract interpretation of one function body,
// tracking which lock expressions are currently held. Branch blocks that
// end in a terminating statement (return, panic, os.Exit-style calls are
// approximated by return only) have their lock-state effects discarded:
// the fall-through path after an early `if ok { mu.Unlock(); return }`
// still holds the lock.
type walker struct {
	pass  *analysis.Pass
	reach map[*types.Func]bool
	// held maps the printed form of the lock receiver ("c.mu") to the
	// expression that acquired it.
	held map[string]ast.Expr
}

func (w *walker) block(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s.List)
	case *ast.DeferStmt:
		// A deferred Unlock releases only at function exit: the lock
		// stays held for the remainder of the body, so it must not
		// change the tracked state. Any other deferred call is examined
		// for oracle reach (it will run while the lock is held if
		// nothing unlocks first — checking at the defer site is the
		// conservative approximation).
		if op, _ := classifyLockCall(w.pass.TypesInfo, s.Call); op == opNone {
			w.expr(s.Call)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.branch(s.Body.List)
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				w.branch(e.List)
			default:
				w.stmt(e)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.branch(s.Body.List)
		if s.Post != nil {
			w.stmt(s.Post)
		}
	case *ast.RangeStmt:
		w.expr(s.X)
		w.branch(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				w.branch(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.GoStmt:
		// The goroutine runs concurrently; its body is analyzed as an
		// independent function (empty lock set) via the FuncLit case in
		// expr, and the spawn itself performs no oracle call.
		w.expr(s.Call.Fun)
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				w.call(n)
				return true
			case *ast.FuncLit:
				sub := &walker{pass: w.pass, reach: w.reach, held: map[string]ast.Expr{}}
				sub.block(n.Body.List)
				return false
			}
			return true
		})
	}
}

// branch analyzes a conditional block. Effects on the lock set are kept
// only when the block falls through; blocks that terminate abandon their
// effects, because execution after the branch resumes from the state at
// entry.
func (w *walker) branch(stmts []ast.Stmt) {
	saved := make(map[string]ast.Expr, len(w.held))
	for k, v := range w.held {
		saved[k] = v
	}
	w.block(stmts)
	if terminates(stmts) {
		w.held = saved
	}
}

func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// expr scans an expression for calls and function literals.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n)
			return true
		case *ast.FuncLit:
			sub := &walker{pass: w.pass, reach: w.reach, held: map[string]ast.Expr{}}
			sub.block(n.Body.List)
			return false
		}
		return true
	})
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
)

// classifyLockCall recognises Lock/RLock and Unlock/RUnlock calls on a
// sync.Mutex/RWMutex, returning the operation and the printed form of the
// lock receiver ("c.mu") used as the held-set key.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockOp, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	f := lintutil.SelectedFunc(info, sel)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return opNone, ""
	}
	switch f.Name() {
	case "Lock", "RLock":
		return opLock, types.ExprString(sel.X)
	case "Unlock", "RUnlock":
		return opUnlock, types.ExprString(sel.X)
	}
	return opNone, ""
}

// call applies lock effects or reports an oracle-reaching call under a
// held lock.
func (w *walker) call(call *ast.CallExpr) {
	switch op, key := classifyLockCall(w.pass.TypesInfo, call); op {
	case opLock:
		w.held[key] = call.Fun
		return
	case opUnlock:
		delete(w.held, key)
		return
	}
	if len(w.held) == 0 {
		return
	}
	callee := lintutil.Callee(w.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	if oracleSeed(callee) || (callee.Pkg() == w.pass.Pkg && w.reach[callee]) {
		for lock := range w.held {
			w.pass.Reportf(call.Pos(),
				"call to %s may reach the distance oracle while %q is held: release the lock around oracle round-trips (decide under the lock, resolve unlocked), or annotate with //proxlint:allow lockheldoracle -- <why>",
				callee.Name(), lock)
			break
		}
	}
}
