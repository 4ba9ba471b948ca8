package analysis

import (
	"go/ast"
	"go/types"
)

// Detmap flags `for range` iteration over maps in
// determinism-critical packages. Go's map iteration order is
// deliberately randomized, so any map range whose effects are
// order-dependent (feeding scheduling decisions, logged output,
// serialized state) breaks the repo's bit-reproducibility guarantees
// — the replay-stable fleet decision log rests on there being none.
//
// A site is accepted without a directive only in the canonical
// collect-then-sort idiom: the loop body does nothing but append the
// key (or value) to slices, and a later statement in the same block
// sorts each collected slice (sort.* or slices.*). Every other map
// range needs a //herald:nondet <reason> justification stating why
// iteration order cannot reach decisions or output.
var Detmap = &Analyzer{
	Name: "detmap",
	Doc:  "flags map iteration whose order can leak into decisions or output; require collect-then-sort or //herald:nondet",
	Run:  runDetmap,
}

func runDetmap(pass *Pass) {
	CheckDirectives(pass, "nondet")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmts := stmtList(n)
			if stmts == nil {
				return true
			}
			for i, s := range stmts {
				rng, ok := s.(*ast.RangeStmt)
				if !ok || !isMapType(pass, rng.X) {
					continue
				}
				if pass.Suppressed("nondet", rng.Pos()) {
					continue
				}
				if collectThenSort(rng, stmts[i+1:]) {
					continue
				}
				pass.Reportf(rng.Pos(), "non-deterministic iteration over map %s: sort the keys first or justify with //herald:nondet <reason>", exprString(rng.X))
			}
			return true
		})
	}
}

// stmtList returns the statement list a node holds, if any (blocks
// and switch/select case bodies).
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// isMapType reports whether the expression's type is a map.
func isMapType(pass *Pass, x ast.Expr) bool {
	tv, ok := pass.Info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// collectThenSort reports whether rng is a pure collect loop (every
// body statement appends to a slice variable) and every collected
// slice is sorted by a later statement in the same block.
func collectThenSort(rng *ast.RangeStmt, rest []ast.Stmt) bool {
	if len(rng.Body.List) == 0 {
		return false
	}
	collected := make(map[string]bool)
	for _, s := range rng.Body.List {
		name, ok := appendTarget(s)
		if !ok {
			return false
		}
		collected[name] = true
	}
	for _, s := range rest {
		if name, ok := sortCallTarget(s); ok {
			delete(collected, name)
		}
	}
	return len(collected) == 0
}

// appendTarget matches `x = append(x, ...)` (or :=) and returns x's
// name.
func appendTarget(s ast.Stmt) (string, bool) {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) < 2 {
		return "", false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return "", false
	}
	return lhs.Name, true
}

// sortCallTarget matches a statement calling into package sort or
// slices with an identifier argument (sort.Strings(keys),
// slices.Sort(keys), sort.Slice(keys, ...)) and returns that
// identifier's name.
func sortCallTarget(s ast.Stmt) (string, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
		return "", false
	}
	if len(call.Args) == 0 {
		return "", false
	}
	if arg, ok := call.Args[0].(*ast.Ident); ok {
		return arg.Name, true
	}
	return "", false
}

// exprString renders a short source-ish form of simple expressions
// for diagnostics.
func exprString(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expression"
}
