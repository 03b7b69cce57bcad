package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// typecheckFunc type-checks a snippet (declarations after "package p") and
// returns the body of func f with the supporting machinery.
func typecheckFunc(t *testing.T, src string) (*token.FileSet, *types.Info, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "df.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := NewInfo()
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return fset, info, fd.Body
		}
	}
	t.Fatal("no func f in source")
	return nil, nil, nil
}

// taintDecls supplies the source, clobber, and sink functions the taint
// tests wire their hooks to.
const taintDecls = `
func src() int      { return 0 }
func clob()         {}
func sink(...int)   {}
`

// runTaint runs the engine over func f in src with: src() as the source
// of label "t", clob() rewriting "t" to "stale", and sink(...) as the
// observation point. It returns "line:label" for every tainted sink
// argument, sorted.
func runTaint(t *testing.T, src string) []string {
	t.Helper()
	fset, info, body := typecheckFunc(t, taintDecls+src)
	base := fset.Position(body.Pos()).Line // the "func f" line, reported as 1
	var hits []string
	calleeName := func(call *ast.CallExpr) string {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			return id.Name
		}
		return ""
	}
	ta := &TaintAnalysis{
		Info: info,
		Source: func(e ast.Expr) string {
			if call, ok := e.(*ast.CallExpr); ok && calleeName(call) == "src" {
				return "t"
			}
			return ""
		},
		Clobber: func(call *ast.CallExpr, label string) string {
			if calleeName(call) == "clob" && label == "t" {
				return "stale"
			}
			return label
		},
		Visit: func(n ast.Node, st *TaintState) {
			ast.Inspect(n, func(sub ast.Node) bool {
				call, ok := sub.(*ast.CallExpr)
				if !ok || calleeName(call) != "sink" {
					return true
				}
				for _, a := range call.Args {
					if l := st.Label(a); l != "" {
						hits = append(hits, fmt.Sprintf("%d:%s", fset.Position(call.Pos()).Line-base+1, l))
					}
				}
				return true
			})
		},
	}
	ta.Run(body)
	sort.Strings(hits)
	return hits
}

func TestTaint(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []string // "line:label" with line 1 = the func f line
	}{
		{
			name: "straight_line_propagation",
			src: `func f() {
				x := src()
				sink(x)
				y := x
				sink(y)
			}`,
			want: []string{"3:t", "5:t"},
		},
		{
			name: "overwrite_kills_taint",
			src: `func f() {
				x := src()
				sink(x)
				x = 0
				sink(x)
			}`,
			want: []string{"3:t"},
		},
		{
			name: "branch_merge_is_may_taint",
			src: `func f(c bool) {
				x := 0
				if c {
					x = src()
				}
				sink(x)
			}`,
			want: []string{"6:t"},
		},
		{
			name: "both_branches_clean",
			src: `func f(c bool) {
				x := src()
				if c {
					x = 0
				} else {
					x = 1
				}
				sink(x)
			}`,
			want: nil,
		},
		{
			name: "loop_carried_taint",
			src: `func f(n int) {
				x := 0
				for i := 0; i < n; i++ {
					sink(x)
					x = src()
				}
			}`,
			// Tainted on the second iteration: only the back edge
			// carries the label here, so this exercises the fixed point.
			want: []string{"4:t"},
		},
		{
			name: "clobber_relabels_live_values",
			src: `func f() {
				x := src()
				clob()
				sink(x)
			}`,
			want: []string{"4:stale"},
		},
		{
			name: "sink_before_clobber_sees_original_label",
			src: `func f() {
				x := src()
				sink(x)
				clob()
				sink(x)
			}`,
			want: []string{"3:t", "5:stale"},
		},
		{
			name: "range_element_inherits_container_taint",
			src: `func f() {
				xs := []int{src()}
				for i, v := range xs {
					sink(v)
					sink(i)
				}
			}`,
			// The value is tainted; the index never is.
			want: []string{"4:t"},
		},
		{
			name: "tuple_assignment_is_positional",
			src: `func f() {
				x, y := src(), 0
				sink(y)
				sink(x)
			}`,
			want: []string{"4:t"},
		},
		{
			name: "append_joins_arguments",
			src: `func f() {
				xs := append([]int{}, 1)
				sink(xs...)
				ys := append(xs, src())
				sink(ys...)
				zs := append([]int{0}, ys...)
				sink(zs...)
			}`,
			// A spread argument passes its elements' label, which the
			// engine's default Element keeps.
			want: []string{"5:t", "7:t"},
		},
		{
			name: "conversions_pass_taint_through",
			src: `func f() {
				y := int(int64(src()))
				sink(y)
			}`,
			want: []string{"3:t"},
		},
		{
			name: "binary_expr_joins_operands",
			src: `func f() {
				x := src() + 1
				sink(x)
			}`,
			want: []string{"3:t"},
		},
		{
			name: "container_store_weakens",
			src: `func f() {
				xs := []int{0}
				xs[0] = src()
				sink(xs[0])
			}`,
			want: []string{"4:t"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := runTaint(t, tt.src)
			if len(got) != len(tt.want) {
				t.Fatalf("hits = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("hits = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestComputeDefUse(t *testing.T) {
	fset, info, body := typecheckFunc(t, `func f(n int) {
		x := 0
		x = n
		x++
		var y = x
		_ = y
	}`)
	_ = fset
	du := ComputeDefUse(info, body)

	find := func(name string) types.Object {
		for obj := range du.Defs {
			if obj.Name() == name {
				return obj
			}
		}
		t.Fatalf("no defs recorded for %q", name)
		return nil
	}
	x := find("x")
	if got := len(du.Defs[x]); got != 3 {
		t.Errorf("x has %d defs, want 3 (:=, =, ++)", got)
	}
	// x is read by x++ and by the var y initializer.
	if got := len(du.Uses[x]); got != 2 {
		t.Errorf("x has %d uses, want 2", got)
	}
	y := find("y")
	if got := len(du.Defs[y]); got != 1 {
		t.Errorf("y has %d defs, want 1", got)
	}
	if got := len(du.Uses[y]); got != 1 {
		t.Errorf("y has %d uses, want 1", got)
	}
}
