package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// ---- shared helpers for the dataflow checks ----------------------------

// pathMatchesAny is the string-level twin of matchesAnySuffix: does the
// import path equal one of the suffixes or end with "/"+suffix?
func pathMatchesAny(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// shortID trims the module prefix off a function ID for messages:
// "decamouflage/internal/filtering.slidingMin" -> "filtering.slidingMin".
func shortID(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

// selectsPkgFuncSuffix is selectsPkgFunc with suffix-based path matching,
// so fixture mini-modules that mirror the real layout resolve the same way.
func selectsPkgFuncSuffix(info *types.Info, e ast.Expr, pkgSuffix, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	pn := pkgNameOf(info, sel.X)
	if pn == nil {
		return false
	}
	p := pn.Imported().Path()
	return p == pkgSuffix || strings.HasSuffix(p, "/"+pkgSuffix)
}

// exprUsesAny reports whether e references any object in set.
func exprUsesAny(info *types.Info, e ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil && set[o] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// ---- hotalloc ----------------------------------------------------------

// checkHotAlloc enforces the //declint:hot contract: an annotated function
// and everything it statically calls (interface dispatch included, resolved
// to module-defined implementers) must be allocation-free — no make/new, no
// growing append (append(x[:0], ...) reuse is sanctioned), no map or slice
// literals, no closures, no interface boxing of non-pointer-shaped values.
// The fast kernels' throughput claims rest on zero per-call allocations;
// this makes that a checked property of the whole call closure instead of
// a benchmark-day observation.
func checkHotAlloc(pkgs []*Package, cfg Config, ix *Index) []Finding {
	var out []Finding
	seen := map[string]bool{}
	for _, rootID := range ix.IDs() {
		root := ix.Funcs[rootID]
		if !root.Hot {
			continue
		}
		for _, id := range ix.Reachable(rootID) {
			fx := ix.Funcs[id]
			if fx == nil {
				continue
			}
			for _, a := range fx.Allocs {
				key := fmt.Sprintf("%s:%d:%d|%s", a.Pos.Filename, a.Pos.Line, a.Pos.Column, a.Kind)
				if seen[key] {
					continue
				}
				seen[key] = true
				msg := a.Kind + " in " + hotMarker + " function " + shortID(id)
				if id != rootID {
					msg = a.Kind + " in " + shortID(id) + ", reachable from " +
						hotMarker + " " + shortID(rootID)
				}
				out = append(out, Finding{
					Check: "hotalloc", Pos: a.Pos,
					Msg: msg + "; hoist the allocation out of the hot path or suppress with a reason",
				})
			}
		}
	}
	return out
}

// ---- detprop -----------------------------------------------------------

// reachHit is one offending effect found by a reachFinder: the call chain
// from the queried function down to the carrier, and the effect site.
type reachHit struct {
	chain []string
	site  *Site
}

// reachFinder answers "does any effect selected by hit() lie on a
// module-internal call path from this function?" with the path, memoized
// per start node. skip() names barrier packages the BFS does not enter;
// hit() inspects a summary and returns the offending site, or nil. Built
// for detprop's source taint and reused by memopure for source and
// global-write reachability.
type reachFinder struct {
	ix   *Index
	skip func(pkgPath string) bool
	hit  func(fx *FuncEffects) *Site
	memo map[string]*reachHit
}

func newReachFinder(ix *Index, skip func(string) bool, hit func(*FuncEffects) *Site) *reachFinder {
	return &reachFinder{ix: ix, skip: skip, hit: hit, memo: map[string]*reachHit{}}
}

func (r *reachFinder) find(start string) *reachHit {
	if t, ok := r.memo[start]; ok {
		return t
	}
	r.memo[start] = nil // cycle guard: in-progress nodes read as clean
	seen := map[string]bool{start: true}
	parent := map[string]string{}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		fx := r.ix.Funcs[cur]
		if fx == nil || r.skip(fx.PkgPath) {
			continue
		}
		if site := r.hit(fx); site != nil {
			chain := []string{cur}
			for p := cur; p != start; {
				p = parent[p]
				chain = append([]string{p}, chain...)
			}
			t := &reachHit{chain: chain, site: site}
			r.memo[start] = t
			return t
		}
		for _, c := range fx.Calls {
			for _, next := range r.ix.expand(c.Callee) {
				if !seen[next] {
					seen[next] = true
					parent[next] = cur
					queue = append(queue, next)
				}
			}
		}
	}
	return nil
}

// chainVia renders a reachHit's call chain for messages.
func (t *reachHit) chainVia() string {
	short := make([]string, len(t.chain))
	for i, c := range t.chain {
		short[i] = shortID(c)
	}
	return strings.Join(short, " -> ")
}

// checkDetProp keeps the numeric kernel packages bit-deterministic: their
// non-test code must not read time.Now or math/rand or feed map iteration
// order into output, directly — reported at the source, package-level var
// initializers included — or through any chain of module-internal calls,
// however deep — reported at the kernel call site. A chain whose carrier
// lives in a kernel package is already reported at its source, so chains
// are flagged only when the carrier lives outside them; packages in
// TaintExemptPkgs (observability: spans read clocks but never feed numeric
// output) are barriers the traversal does not cross.
func checkDetProp(pkgs []*Package, cfg Config, ix *Index) []Finding {
	kernel := func(p string) bool { return pathMatchesAny(p, cfg.DeterminismPkgs) }
	exemptTraverse := func(p string) bool { return pathMatchesAny(p, cfg.TaintExemptPkgs) }
	taints := newReachFinder(ix, exemptTraverse, func(fx *FuncEffects) *Site {
		if len(fx.Sources) > 0 && !exemptTraverse(fx.PkgPath) && !kernel(fx.PkgPath) {
			return &fx.Sources[0]
		}
		return nil
	})
	direct := func(s Site) Finding {
		msg := s.Kind + " in a kernel package"
		switch s.Kind {
		case "time.Now":
			msg += " makes output time-dependent"
		case "math/rand":
			msg += "; thread explicit seeds through a deterministic source instead"
		default:
			msg += "; iterate sorted keys instead"
		}
		return Finding{Check: "detprop", Pos: s.Pos, Msg: msg}
	}

	var out []Finding
	seenSite := map[string]bool{}
	for _, pkg := range pkgs {
		if !kernel(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.Ast.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					ast.Inspect(gd, func(n ast.Node) bool {
						if kind := nondetSource(pkg.Info, n); kind != "" {
							out = append(out, direct(Site{Kind: kind, Pos: pkg.pos(n)}))
						}
						return true
					})
				}
			}
		}
	}
	for _, id := range ix.IDs() {
		fx := ix.Funcs[id]
		if !kernel(fx.PkgPath) {
			continue
		}
		for _, s := range fx.Sources {
			out = append(out, direct(s))
		}
		for _, cs := range fx.Calls {
			for _, target := range ix.expand(cs.Callee) {
				t := taints.find(target)
				if t == nil {
					continue
				}
				key := fmt.Sprintf("%s:%d:%d", cs.Pos.Filename, cs.Pos.Line, cs.Pos.Column)
				if seenSite[key] {
					break
				}
				seenSite[key] = true
				out = append(out, Finding{
					Check: "detprop", Pos: cs.Pos,
					Msg: fmt.Sprintf("call reaches %s at %s:%d (via %s); "+
						"kernel output must not depend on it",
						t.site.Kind, filepath.Base(t.site.Pos.Filename), t.site.Pos.Line,
						t.chainVia()),
				})
				break
			}
		}
	}
	return out
}

// ---- ctxflow -----------------------------------------------------------

// checkCtxFlow enforces context discipline in internal library code: a
// function that receives a context must actually use it and must not mint a
// fresh context.Background/TODO, and unexported internal functions may not
// mint contexts at all — only exported entry points are documented context
// roots. A minted context three calls deep silently severs cancellation
// for every parallel kernel below it.
func checkCtxFlow(pkgs []*Package, cfg Config, ix *Index) []Finding {
	var out []Finding
	for _, id := range ix.IDs() {
		fx := ix.Funcs[id]
		if !strings.Contains("/"+fx.PkgPath+"/", "/internal/") {
			continue
		}
		if fx.HasCtx && !fx.CtxUsed {
			out = append(out, Finding{
				Check: "ctxflow", Pos: fx.CtxPos,
				Msg: "ctx parameter " + fx.CtxParam + " of " + shortID(id) +
					" is never used; pass it to callees or rename it _ to document the drop",
			})
		}
		for _, r := range fx.CtxRoots {
			switch {
			case fx.HasCtx:
				out = append(out, Finding{
					Check: "ctxflow", Pos: r.Pos,
					Msg: shortID(id) + " receives a context but mints " + r.Kind +
						"(); pass the ctx parameter down instead",
				})
			case !fx.Exported:
				out = append(out, Finding{
					Check: "ctxflow", Pos: r.Pos,
					Msg: "unexported " + shortID(id) + " mints " + r.Kind +
						"() in internal code; accept a context from its caller",
				})
			}
		}
	}
	return out
}
