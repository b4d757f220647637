package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ---- shared helpers ----------------------------------------------------

func (p *Package) pos(n ast.Node) token.Position { return p.Fset.Position(n.Pos()) }

// pkgNameOf resolves e to the imported package it names, or nil.
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// selectsPkgFunc reports whether e is a selector <pkg>.<name> for the given
// import path.
func selectsPkgFunc(info *types.Info, e ast.Expr, pkgPath, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	pn := pkgNameOf(info, sel.X)
	return pn != nil && pn.Imported().Path() == pkgPath
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0 && b.Info()&types.IsComplex == 0
}

// calleeName returns the bare name of a call's callee: f(...) -> "f",
// x.M(...) -> "M". Empty when the callee is not a named selector or ident.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// matchesAnySuffix reports whether the package path matches any configured
// suffix, in either its library or external-test (path + "_test") form.
func matchesAnySuffix(pkg *Package, suffixes []string) bool {
	for _, s := range suffixes {
		if pkg.HasSuffix(s) || pkg.HasSuffix(s+"_test") {
			return true
		}
	}
	return false
}

// orderDependentSink reports the first statement inside a map-range body
// whose effect depends on iteration order: growing a slice, writing or
// formatting output, or sending on a channel. Pure accumulation (sums,
// counters, building another map) is order-independent and allowed.
func orderDependentSink(body *ast.BlockStmt, info *types.Info) (ast.Node, string) {
	var node ast.Node
	var what string
	ast.Inspect(body, func(n ast.Node) bool {
		if node != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			node, what = n, "channel send"
		case *ast.CallExpr:
			name := calleeName(n)
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin && name == "append" {
					node, what = n, "append"
					return false
				}
			}
			for _, prefix := range []string{"Print", "Fprint", "Sprint", "Write"} {
				if strings.HasPrefix(name, prefix) {
					node, what = n, name+" call"
					return false
				}
			}
		}
		return true
	})
	return node, what
}

// ---- floateq -----------------------------------------------------------

// checkFloatEq forbids exact ==/!= between float operands everywhere —
// test code included, since the serial-vs-parallel equivalence suites are
// exactly where accidental exact comparisons hide. Intentional bit-equality
// lives in the allowlisted internal/testutil helpers; everything else
// either calls those or carries an ignore directive explaining itself.
func checkFloatEq(pkg *Package, cfg Config) []Finding {
	if matchesAnySuffix(pkg, cfg.FloatEqAllowPkgs) {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			tx, okx := pkg.Info.Types[be.X]
			ty, oky := pkg.Info.Types[be.Y]
			if okx && oky && isFloat(tx.Type) && isFloat(ty.Type) {
				out = append(out, Finding{
					Check: "floateq", Pos: pkg.pos(be),
					Msg: "exact " + be.Op.String() + " on float operands; " +
						"use a tolerance, or internal/testutil for intentional bit equality",
				})
			}
			return true
		})
	}
	return out
}

// ---- errdrop -----------------------------------------------------------

var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether the call's result set includes error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(t, errorType)
	}
}

// checkErrDrop forbids `_ = f()` discards of error-returning calls in
// non-test code. A dropped error in a numeric pipeline silently converts a
// failed computation into stale or zero-valued output — exactly the class
// of bug the detection thresholds cannot survive.
func checkErrDrop(pkg *Package, cfg Config) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != "_" {
					return true
				}
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !returnsError(pkg.Info, call) {
				return true
			}
			out = append(out, Finding{
				Check: "errdrop", Pos: pkg.pos(as),
				Msg: "error from " + callLabel(call) + " discarded with _; " +
					"handle it or annotate why it cannot fail",
			})
			return true
		})
	}
	return out
}

func callLabel(call *ast.CallExpr) string {
	if name := calleeName(call); name != "" {
		return name
	}
	return "call"
}

// ---- obsonly -----------------------------------------------------------

// checkObsOnly restricts the profiling and metrics-exposition imports to
// the observability package and the cmd/ entry points. Library code routes
// all measurement through internal/obs, which keeps the disabled path a
// single atomic load and the exposition surface in one audited place.
func checkObsOnly(pkg *Package, cfg Config) []Finding {
	if len(cfg.ObsOnlyImports) == 0 {
		return nil
	}
	if cfg.ObsPkg != "" &&
		(pkg.HasSuffix(cfg.ObsPkg) || pkg.HasSuffix(cfg.ObsPkg+"_test")) {
		return nil
	}
	if isCmdPkg(pkg) {
		return nil
	}
	restricted := map[string]bool{}
	for _, p := range cfg.ObsOnlyImports {
		restricted[p] = true
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, imp := range f.Ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !restricted[path] {
				continue
			}
			out = append(out, Finding{
				Check: "obsonly", Pos: pkg.pos(imp),
				Msg: "import of " + path + " outside " + cfg.ObsPkg +
					" and cmd/; route observability through " + cfg.ObsPkg,
			})
		}
	}
	return out
}

// isCmdPkg reports whether the package lives under a cmd/ directory — an
// entry point that may wire profiling and exposition directly.
func isCmdPkg(pkg *Package) bool {
	for _, seg := range strings.Split(pkg.Path, "/") {
		if seg == "cmd" {
			return true
		}
	}
	return false
}
