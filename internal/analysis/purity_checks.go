package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// ---- shared: memoized-stage discovery ----------------------------------

// memoClosure is one compute closure handed to a memo table: the memo(...)
// call, the closure literal, and the function declaration enclosing it.
type memoClosure struct {
	pkg  *Package
	fd   *ast.FuncDecl
	call *ast.CallExpr
	lit  *ast.FuncLit
}

// memoClosures finds every `x.memo(key, func() ...)` call whose receiver
// type matches cfg.MemoTypes ("pkgpath.TypeName", suffix-matched so fixture
// mini-modules resolve like the real module). Named compute functions are
// out of scope: only literal closures are stage bodies.
func memoClosures(pkg *Package, cfg Config) []memoClosure {
	var out []memoClosure
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isMemoCall(pkg.Info, call, cfg.MemoTypes) {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						out = append(out, memoClosure{pkg: pkg, fd: fd, call: call, lit: lit})
						break
					}
				}
				return true
			})
		}
	}
	return out
}

func isMemoCall(info *types.Info, call *ast.CallExpr, memoTypes []string) bool {
	return isMethodCallOn(info, call, "memo", memoTypes)
}

// isMethodCallOn reports whether call invokes the named method on a
// receiver whose qualified type ("pkgpath.TypeName") matches one of the
// given suffixes — the shared matcher behind the memo-table and
// flight-recorder audits.
func isMethodCallOn(info *types.Info, call *ast.CallExpr, name string, typeSuffixes []string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	qual := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	for _, m := range typeSuffixes {
		if qual == m || strings.HasSuffix(qual, "/"+m) {
			return true
		}
	}
	return false
}

// ---- memopure ----------------------------------------------------------

// checkMemoPure enforces that every memoized pipeline stage is a pure
// function of its stage key: the compute closure must not write captured or
// package-level state, must not read a nondeterministic source directly,
// and must not reach one — or a package-level write — through any chain of
// module-internal calls (the detprop taint machinery, pointed at stage
// closures). Observability packages are exempt barriers: stage spans read
// clocks but never feed the memoized value.
func checkMemoPure(pkgs []*Package, cfg Config, ix *Index) []Finding {
	skipObs := func(p string) bool { return pathMatchesAny(p, cfg.TaintExemptPkgs) }
	sources := newReachFinder(ix, skipObs, func(fx *FuncEffects) *Site {
		if len(fx.Sources) > 0 {
			return &fx.Sources[0]
		}
		return nil
	})
	gwrites := newReachFinder(ix, skipObs, func(fx *FuncEffects) *Site {
		if len(fx.GlobalWrites) > 0 {
			return &fx.GlobalWrites[0]
		}
		return nil
	})

	var out []Finding
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		for _, mc := range memoClosures(pkg, cfg) {
			out = append(out, memoPureClosure(mc, sources, gwrites, ix)...)
		}
	}
	return out
}

func memoPureClosure(mc memoClosure, sources, gwrites *reachFinder, ix *Index) []Finding {
	pkg, lit := mc.pkg, mc.lit
	info := pkg.Info
	var out []Finding
	report := func(n ast.Node, msg string) {
		out = append(out, Finding{Check: "memopure", Pos: pkg.pos(n), Msg: msg})
	}

	checkWrite := func(lhs ast.Expr) {
		obj := rootObj(info, lhs)
		v, ok := obj.(*types.Var)
		if !ok || declaredWithin(v, lit) {
			return
		}
		what := "captured " + v.Name()
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			what = "package-level " + v.Name()
		}
		report(lhs, "stage compute closure writes "+what+
			"; a memoized stage must be a pure function of its stage key")
	}

	funcVars := collectFuncVars(info, mc.fd)
	seenSite := map[string]bool{}
	once := func(pos token.Position) bool {
		key := fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
		if seenSite[key] {
			return false
		}
		seenSite[key] = true
		return true
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					checkWrite(lhs)
				}
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		case *ast.SelectorExpr:
			if selectsPkgFunc(info, n, "time", "Now") {
				report(n, "stage compute closure reads time.Now; "+
					"encode the dependence in the stage key or remove it")
			} else if pn := pkgNameOf(info, n.X); pn != nil {
				if p := pn.Imported().Path(); p == "math/rand" || p == "math/rand/v2" {
					report(n, "stage compute closure reads math/rand; "+
						"encode the dependence in the stage key or remove it")
				}
			}
		case *ast.CallExpr:
			pos := pkg.pos(n)
			for _, target := range resolveCallTargets(info, n.Fun, funcVars) {
				for _, id := range ix.expand(target) {
					if t := sources.find(id); t != nil && once(pos) {
						report(n, fmt.Sprintf("stage compute closure calls %s, which reaches %s at %s:%d (via %s); "+
							"a memoized stage must be a pure function of its stage key",
							shortID(id), t.site.Kind,
							filepath.Base(t.site.Pos.Filename), t.site.Pos.Line, t.chainVia()))
					}
					if t := gwrites.find(id); t != nil && once(pos) {
						report(n, fmt.Sprintf("stage compute closure calls %s, which reaches a %s at %s:%d (via %s); "+
							"a memoized stage must not mutate state outside the table",
							shortID(id), t.site.Kind,
							filepath.Base(t.site.Pos.Filename), t.site.Pos.Line, t.chainVia()))
					}
				}
			}
		}
		return true
	})
	return out
}

// ---- obscover ----------------------------------------------------------

// checkObsCover keeps instrumentation from rotting: every memoized pipeline
// stage must open an obs stage span (obs.StartStage with a real histogram)
// inside its compute closure, every cache built with cache.NewLRU must be
// registered with real obs cache stats rather than nil, and every
// flight-recorder event must be emitted inside an active span so it
// carries a trace ID and stage attribution (obsCoverEvents).
func checkObsCover(pkgs []*Package, cfg Config, ix *Index) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		for _, mc := range memoClosures(pkg, cfg) {
			out = append(out, obsCoverStage(mc, cfg)...)
		}
		out = append(out, obsCoverEvents(pkg, cfg)...)
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fun := ast.Unparen(call.Fun)
				switch g := fun.(type) {
				case *ast.IndexExpr:
					fun = ast.Unparen(g.X)
				case *ast.IndexListExpr:
					fun = ast.Unparen(g.X)
				}
				if !selectsPkgFuncSuffix(pkg.Info, fun, cfg.CachePkg, "NewLRU") {
					return true
				}
				if len(call.Args) < 2 {
					return true
				}
				stats := call.Args[len(call.Args)-1]
				if tv, ok := pkg.Info.Types[stats]; ok && tv.IsNil() {
					out = append(out, Finding{
						Check: "obscover", Pos: pkg.pos(call),
						Msg: "cache constructed with nil stats; pass obs.NewCacheStats " +
							"so hit rates stay observable",
					})
				}
				return true
			})
		}
	}
	return out
}

func obsCoverStage(mc memoClosure, cfg Config) []Finding {
	pkg := mc.pkg
	var out []Finding
	sawStart := false
	ast.Inspect(mc.lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !selectsPkgFuncSuffix(pkg.Info, ast.Unparen(call.Fun), cfg.ObsPkg, "StartStage") {
			return true
		}
		sawStart = true
		if len(call.Args) > 0 {
			last := call.Args[len(call.Args)-1]
			if tv, ok := pkg.Info.Types[last]; ok && tv.IsNil() {
				out = append(out, Finding{
					Check: "obscover", Pos: pkg.pos(call),
					Msg: "stage opens its span with a nil histogram; " +
						"register a real obs histogram so stage latency is recorded",
				})
			}
		}
		return true
	})
	if !sawStart {
		out = append(out, Finding{
			Check: "obscover", Pos: pkg.pos(mc.call),
			Msg: "memoized stage records no obs span; call obs.StartStage " +
				"with the stage's histogram inside the compute closure",
		})
	}
	return out
}

// obsCoverEvents keeps wide events attributable: any function outside the
// obs package that calls Record on a flight recorder (cfg.RecorderTypes)
// must have opened an obs span lexically earlier in the same function —
// via ObsPkg's StartSpan or StartStage — else the event it emits carries
// no trace ID and no stage tree, and the exemplar/trace/event linkage the
// recorder exists for is silently severed. The obs package itself is
// exempt: it defines the recorder, and its tests record hand-built events
// that belong to no request and so have no span to sit inside.
func obsCoverEvents(pkg *Package, cfg Config) []Finding {
	if len(cfg.RecorderTypes) == 0 {
		return nil
	}
	if cfg.ObsPkg != "" &&
		(pkg.HasSuffix(cfg.ObsPkg) || pkg.HasSuffix(cfg.ObsPkg+"_test")) {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var starts []token.Pos
			var records []*ast.CallExpr
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fun := ast.Unparen(call.Fun)
				if selectsPkgFuncSuffix(pkg.Info, fun, cfg.ObsPkg, "StartStage") ||
					selectsPkgFuncSuffix(pkg.Info, fun, cfg.ObsPkg, "StartSpan") {
					starts = append(starts, call.Pos())
					return true
				}
				if isMethodCallOn(pkg.Info, call, "Record", cfg.RecorderTypes) {
					records = append(records, call)
				}
				return true
			})
			for _, call := range records {
				covered := false
				for _, p := range starts {
					if p < call.Pos() {
						covered = true
						break
					}
				}
				if !covered {
					out = append(out, Finding{
						Check: "obscover", Pos: pkg.pos(call),
						Msg: "flight-recorder event emitted outside an active span; " +
							"open one with obs.StartSpan or obs.StartStage first so " +
							"the event carries a trace ID and stage attribution",
					})
				}
			}
		}
	}
	return out
}
