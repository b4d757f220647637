package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"strings"
)

// ---- poollife ----------------------------------------------------------

// checkPoolLife tracks values borrowed from sync.Pool.Get — and from the
// module's annotated borrow helpers — through each function as owned
// resources: every path must release a live token exactly once (Put, a call
// to a //declint:transfers function, or invoking an owned release func),
// may not release it twice, may not use it after a direct Put, and may not
// smuggle it into longer-lived storage or a return value unless the
// enclosing function is marked //declint:owns. The directives' claims are
// themselves verified at the callee: an owns function must reach a real
// pool acquire, a transfers function must reach a release or demonstrably
// store the value it takes custody of.
func checkPoolLife(pkgs []*Package, cfg Config, ix *Index) []Finding {
	var out []Finding

	decls := collectDecls(pkgs)

	for _, id := range ix.IDs() {
		fx := ix.Funcs[id]
		for i := range fx.DirectiveErrs {
			out = append(out, Finding{
				Check: "poollife", Pos: fx.DirectiveErrs[i].Pos, Msg: fx.DirectiveErrs[i].Kind,
			})
		}
		if len(fx.OwnsResults) > 0 && !reachesAcquire(ix, id) {
			out = append(out, Finding{
				Check: "poollife", Pos: fx.Pos,
				Msg: shortID(id) + " claims " + ownsMarker +
					" but no sync.Pool.Get is reachable from it; drop the directive or borrow from a pool",
			})
		}
		if (len(fx.TransfersParams) > 0 || fx.TransfersRecv) &&
			!transfersClaimHolds(ix, id, fx, decls) {
			out = append(out, Finding{
				Check: "poollife", Pos: fx.Pos,
				Msg: shortID(id) + " claims " + transfersMarker +
					" but neither releases nor stores the value it takes custody of; drop the directive",
			})
		}
	}

	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.Ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				owns := false
				if obj, k := pkg.Info.Defs[fd.Name].(*types.Func); k {
					if fx := ix.Funcs[funcIDOf(obj)]; fx != nil {
						owns = len(fx.OwnsResults) > 0
					}
				}
				sc := &poolScope{pkg: pkg, ix: ix, owns: owns, out: &out,
					scope: fd, tokens: map[types.Object]*tokenInfo{}}
				sc.run(fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						ls := &poolScope{pkg: pkg, ix: ix, owns: false, out: &out,
							scope: lit, tokens: map[types.Object]*tokenInfo{}}
						ls.run(lit.Body)
					}
					return true
				})
			}
		}
	}
	return out
}

// declEntry locates one function declaration for AST-level claim checks.
type declEntry struct {
	pkg *Package
	fd  *ast.FuncDecl
}

func collectDecls(pkgs []*Package) map[string]declEntry {
	decls := map[string]declEntry{}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.Ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, k := pkg.Info.Defs[fd.Name].(*types.Func); k {
					if id := funcIDOf(obj); id != "" {
						if _, dup := decls[id]; !dup {
							decls[id] = declEntry{pkg: pkg, fd: fd}
						}
					}
				}
			}
		}
	}
	return decls
}

func reachesAcquire(ix *Index, id string) bool {
	for _, rid := range ix.Reachable(id) {
		if r := ix.Funcs[rid]; r != nil && len(r.Acquires) > 0 {
			return true
		}
	}
	return false
}

// transfersClaimHolds verifies a //declint:transfers claim: the function
// must reach a sync.Pool.Put, or visibly store the claimed value (into a
// field, element, or another transfers function) so custody really moves.
func transfersClaimHolds(ix *Index, id string, fx *FuncEffects, decls map[string]declEntry) bool {
	for _, rid := range ix.Reachable(id) {
		if r := ix.Funcs[rid]; r != nil && len(r.Releases) > 0 {
			return true
		}
	}
	de, ok := decls[id]
	if !ok {
		return false
	}
	obj, _ := de.pkg.Info.Defs[de.fd.Name].(*types.Func)
	if obj == nil {
		return false
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	claimed := map[types.Object]bool{}
	for _, k := range fx.TransfersParams {
		if k < sig.Params().Len() {
			claimed[sig.Params().At(k)] = true
		}
	}
	if fx.TransfersRecv && sig.Recv() != nil {
		claimed[sig.Recv()] = true
	}
	if len(claimed) == 0 {
		return false
	}
	info := de.pkg.Info
	found := false
	ast.Inspect(de.fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch {
				case len(n.Rhs) == len(n.Lhs):
					rhs = n.Rhs[i]
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				default:
					continue
				}
				if !exprUsesAny(info, rhs, claimed) {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					_ = l
					found = true
				case *ast.Ident:
					o := info.Uses[l]
					if o == nil {
						o = info.Defs[l]
					}
					if v, ok := o.(*types.Var); ok && !declaredWithin(v, de.fd) {
						found = true
					}
				}
			}
		case *ast.CallExpr:
			fn := staticFuncRef(info, n.Fun)
			if fn == nil {
				return true
			}
			cf := ix.Funcs[funcIDOf(fn)]
			if cf == nil || len(cf.TransfersParams) == 0 {
				return true
			}
			for _, k := range cf.TransfersParams {
				if k < len(n.Args) && exprUsesAny(info, n.Args[k], claimed) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// ---- the per-scope abstract state --------------------------------------

type tokenState int

const (
	stNil tokenState = iota // definitely no borrowed value (zero value)
	stLive
	stMaybeLive    // live on some paths
	stLiveDeferred // a deferred release is pending
	stTransferred  // custody moved (transfers call, sanctioned escape)
	stReleased     // returned to the pool via a direct Put
)

func needsRelease(s tokenState) bool { return s == stLive || s == stMaybeLive }

func joinState(x, y tokenState) tokenState {
	if x == y {
		return x
	}
	if needsRelease(x) || needsRelease(y) {
		return stMaybeLive
	}
	for _, pref := range []tokenState{stLiveDeferred, stTransferred, stNil} {
		if x == pref || y == pref {
			return pref
		}
	}
	return stReleased
}

// tokenInfo is the per-token registry entry, shared across paths.
type tokenInfo struct {
	name          string
	acquire       token.Position
	usedAfterFree bool // report use-after-release once per token
}

// pstate is the abstract state of one execution path.
type pstate struct {
	st    map[types.Object]tokenState
	assoc map[types.Object][]types.Object // error var -> tokens of the same acquire
}

func newPstate() *pstate {
	return &pstate{st: map[types.Object]tokenState{}, assoc: map[types.Object][]types.Object{}}
}

// poolScope is poollife's path domain over one function or closure body.
type poolScope struct {
	pkg    *Package
	ix     *Index
	scope  ast.Node // *ast.FuncDecl or *ast.FuncLit
	owns   bool     // scope is //declint:owns: escapes transfer custody
	out    *[]Finding
	tokens map[types.Object]*tokenInfo
}

func (a *poolScope) report(pos token.Position, msg string) {
	*a.out = append(*a.out, Finding{Check: "poollife", Pos: pos, Msg: msg})
}

func (a *poolScope) posOf(n ast.Node) token.Position { return a.pkg.Fset.Position(n.Pos()) }

func (a *poolScope) identObj(id *ast.Ident) types.Object {
	if o := a.pkg.Info.Uses[id]; o != nil {
		return o
	}
	return a.pkg.Info.Defs[id]
}

func (a *poolScope) borrowedAt(obj types.Object) string {
	ti := a.tokens[obj]
	return fmt.Sprintf("%s (borrowed at %s:%d)", ti.name,
		filepath.Base(ti.acquire.Filename), ti.acquire.Line)
}

func (a *poolScope) run(body *ast.BlockStmt) {
	s := newPstate()
	if !(&pathWalker[*pstate]{d: a, info: a.pkg.Info}).stmts(body.List, s) {
		a.leakCheckAll(s, a.pkg.Fset.Position(body.Rbrace), "at end of function")
	}
}

// leakCheckAll reports every still-live token at an exit that returns
// nothing.
func (a *poolScope) leakCheckAll(s *pstate, pos token.Position, where string) {
	for obj, st := range s.st {
		if !needsRelease(st) {
			continue
		}
		verb := "is not released"
		if st == stMaybeLive {
			verb = "may not be released"
		}
		a.report(pos, "pooled value "+a.borrowedAt(obj)+" "+verb+" "+where+
			"; add the missing release or defer it")
	}
}

// ---- the path domain ----------------------------------------------------

func (a *poolScope) clone(s *pstate) *pstate {
	return &pstate{st: maps.Clone(s.st), assoc: maps.Clone(s.assoc)}
}

// join folds joinState over every token (a token absent on a path is nil
// there) and unions the error associations, earlier paths first.
func (a *poolScope) join(dst *pstate, from []*pstate) {
	out := newPstate()
	for _, s := range from {
		for k := range s.st {
			out.st[k] = stNil
		}
		for k, v := range s.assoc {
			if _, ok := out.assoc[k]; !ok {
				out.assoc[k] = v
			}
		}
	}
	for k := range out.st {
		v := from[0].st[k]
		for _, s := range from[1:] {
			v = joinState(v, s.st[k])
		}
		out.st[k] = v
	}
	*dst = *out
}

func (a *poolScope) branch(cond ast.Expr, s *pstate) (then, els *pstate) {
	a.scanExpr(cond, s)
	then, els = a.clone(s), a.clone(s)
	a.refine(cond, then, els)
	return then, els
}

func (a *poolScope) step(stmt ast.Stmt, s *pstate) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		a.handleExprStmt(st, s)
	case *ast.AssignStmt:
		a.handleAssign(st, s)
	case *ast.DeclStmt:
		a.handleDecl(st, s)
	case *ast.DeferStmt:
		a.handleDefer(st, s)
	case *ast.ReturnStmt:
		a.handleReturn(st, s)
	case *ast.GoStmt:
		a.handleGo(st, s)
	case *ast.SendStmt:
		a.scanExpr(st.Chan, s)
		a.scanExpr(st.Value, s)
	case *ast.IncDecStmt:
		a.scanExpr(st.X, s)
	case *ast.ForStmt:
		a.scanExpr(st.Cond, s)
	case *ast.RangeStmt:
		a.scanExpr(st.X, s)
	case *ast.SwitchStmt:
		a.scanExpr(st.Tag, s)
	case *ast.CaseClause:
		for _, e := range st.List {
			a.scanExpr(e, s)
		}
	}
}

func (a *poolScope) comm(_ *ast.SelectStmt, cc *ast.CommClause, s *pstate) {
	if cc.Comm != nil {
		a.step(cc.Comm, s)
	}
}

// backEdge flags a token that was live before the loop and released inside
// its body: a second iteration would double-free it.
func (a *poolScope) backEdge(loop ast.Stmt, pre, body *pstate) {
	for obj, stPre := range pre.st {
		if !needsRelease(stPre) {
			continue
		}
		if bs := body.st[obj]; bs == stReleased || bs == stTransferred {
			a.report(a.posOf(loop), "pooled value "+a.borrowedAt(obj)+
				" is released inside a loop body; a second iteration double-frees it")
			body.st[obj] = stReleased
		}
	}
}

// scopeExit leak-checks and forgets tokens whose variable is scoped to node
// once control leaves it.
func (a *poolScope) scopeExit(node ast.Node, s *pstate, terminated bool) {
	for obj, st := range s.st {
		if !declaredWithin(obj, node) {
			continue
		}
		if !terminated && needsRelease(st) {
			ti := a.tokens[obj]
			a.report(ti.acquire, "pooled value "+a.borrowedAt(obj)+
				" goes out of scope without being released")
		}
		delete(s.st, obj)
	}
}

// refine narrows branch states from `x != nil` / `x == nil` conditions on
// tokens and on error variables associated with an owning acquire.
func (a *poolScope) refine(cond ast.Expr, sThen, sElse *pstate) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return
	}
	var x ast.Expr
	switch {
	case a.isNil(bin.Y):
		x = bin.X
	case a.isNil(bin.X):
		x = bin.Y
	default:
		return
	}
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return
	}
	obj := a.identObj(id)
	if obj == nil {
		return
	}
	nilBranch, liveBranch := sElse, sThen // x != nil
	if bin.Op == token.EQL {
		nilBranch, liveBranch = sThen, sElse
	}
	if a.tokens[obj] != nil {
		if needsRelease(nilBranch.st[obj]) {
			nilBranch.st[obj] = stNil
		}
		if liveBranch.st[obj] == stMaybeLive {
			liveBranch.st[obj] = stLive
		}
		return
	}
	// obj is an error variable: the roles invert — on the err != nil branch
	// (liveBranch for a token) the acquire failed and its owned results
	// hold nothing; on err == nil they are definitely live.
	for _, tok := range sThen.assoc[obj] {
		if needsRelease(liveBranch.st[tok]) {
			liveBranch.st[tok] = stNil
		}
		if needsRelease(nilBranch.st[tok]) {
			nilBranch.st[tok] = stLive
		}
	}
}

func (a *poolScope) isNil(e ast.Expr) bool {
	tv, ok := a.pkg.Info.Types[e]
	return ok && tv.IsNil()
}

// ---- expression-level events -------------------------------------------

// relEvent is one release recognized inside an expression tree.
type relEvent struct {
	obj      types.Object
	transfer bool     // custody moves (transfers directive) vs direct Put
	node     ast.Node // the call
	consumed []ast.Node
}

// classifyReleases recognizes every release form inside a call: a direct
// sync.Pool.Put, invoking a token that is itself a release func, calling a
// //declint:transfers function or method with a token (or a transfers-
// receiver method value) in a custody position.
func (a *poolScope) classifyReleases(call *ast.CallExpr, s *pstate) []relEvent {
	info := a.pkg.Info
	var out []relEvent
	tokenIdent := func(e ast.Expr) (*ast.Ident, types.Object) {
		x := ast.Unparen(e)
		if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
			x = ast.Unparen(u.X)
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return nil, nil
		}
		obj := a.identObj(id)
		if obj == nil || a.tokens[obj] == nil {
			return nil, nil
		}
		return id, obj
	}

	if syncPoolMethod(info, call) == "Put" && len(call.Args) == 1 {
		if id, obj := tokenIdent(call.Args[0]); obj != nil {
			out = append(out, relEvent{obj: obj, node: call, consumed: []ast.Node{id}})
		}
		return out
	}
	if id, obj := tokenIdent(call.Fun); obj != nil {
		// putDown() — invoking an owned release func releases its buffer.
		return append(out, relEvent{obj: obj, node: call, consumed: []ast.Node{id}})
	}

	fn := staticFuncRef(info, call.Fun)
	if fn == nil {
		return out
	}
	cf := a.ix.Funcs[funcIDOf(fn)]
	if cf == nil {
		return out
	}
	if cf.TransfersRecv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, obj := tokenIdent(sel.X); obj != nil {
				out = append(out, relEvent{obj: obj, transfer: true, node: call, consumed: []ast.Node{id}})
			}
		}
	}
	for _, k := range cf.TransfersParams {
		if k >= len(call.Args) {
			continue
		}
		arg := ast.Unparen(call.Args[k])
		if id, obj := tokenIdent(arg); obj != nil {
			out = append(out, relEvent{obj: obj, transfer: true, node: call, consumed: []ast.Node{id}})
			continue
		}
		if sel, ok := arg.(*ast.SelectorExpr); ok {
			// in.deferRelease(ref.Release): a transfers-receiver method
			// value hands the receiver's custody to the callee.
			if mfn := staticFuncRef(info, sel); mfn != nil {
				if mf := a.ix.Funcs[funcIDOf(mfn)]; mf != nil && mf.TransfersRecv {
					if id, obj := tokenIdent(sel.X); obj != nil {
						out = append(out, relEvent{obj: obj, transfer: true, node: call, consumed: []ast.Node{id}})
					}
				}
			}
			continue
		}
		if lit, ok := arg.(*ast.FuncLit); ok {
			// A closure handed to a transfers parameter carries custody of
			// every live token it releases in its body.
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if inner, ok := n.(*ast.CallExpr); ok {
					for _, ev := range a.classifyReleases(inner, s) {
						ev.transfer = true
						ev.node = call
						out = append(out, ev)
					}
				}
				return true
			})
		}
	}
	return out
}

// applyRelease performs a release transition, reporting double-release
// hazards.
func (a *poolScope) applyRelease(s *pstate, ev relEvent, deferred bool) {
	pos := a.posOf(ev.node)
	switch s.st[ev.obj] {
	case stLive, stMaybeLive:
		switch {
		case ev.transfer:
			s.st[ev.obj] = stTransferred
		case deferred:
			s.st[ev.obj] = stLiveDeferred
		default:
			s.st[ev.obj] = stReleased
		}
	case stLiveDeferred:
		a.report(pos, "pooled value "+a.borrowedAt(ev.obj)+
			" has a deferred release pending; this release double-frees it")
	case stReleased:
		a.report(pos, "pooled value "+a.borrowedAt(ev.obj)+" released more than once")
	case stTransferred:
		a.report(pos, "pooled value "+a.borrowedAt(ev.obj)+
			" was already transferred away; this release double-frees it")
	case stNil:
		// Releasing a definitely-nil token is a no-op (nil-guarded paths).
	}
}

// scanExpr walks one expression: applies releases, flags uses of released
// tokens, and checks closures for references to released tokens. Escapes
// are handled by the statement-level callers that know the storage target.
func (a *poolScope) scanExpr(e ast.Expr, s *pstate) {
	if e == nil {
		return
	}
	skip := map[ast.Node]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.scanUseAfterRelease(n.Body, s)
			return false
		case *ast.CallExpr:
			for _, ev := range a.classifyReleases(n, s) {
				for _, c := range ev.consumed {
					skip[c] = true
				}
				a.applyRelease(s, ev, false)
			}
		case *ast.Ident:
			if skip[n] {
				return true
			}
			a.flagUseIfReleased(n, s)
		}
		return true
	})
}

func (a *poolScope) flagUseIfReleased(id *ast.Ident, s *pstate) {
	obj := a.identObj(id)
	if obj == nil {
		return
	}
	ti := a.tokens[obj]
	if ti == nil || ti.usedAfterFree || s.st[obj] != stReleased {
		return
	}
	ti.usedAfterFree = true
	a.report(a.posOf(id), "use of pooled value "+a.borrowedAt(obj)+" after it was released")
}

func (a *poolScope) scanUseAfterRelease(n ast.Node, s *pstate) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			a.flagUseIfReleased(id, s)
		}
		return true
	})
}

// storedTokens collects live tokens referenced in e outside call-argument
// position: direct stores (the ident itself, composite literals, &x) and
// closure captures — the forms that can outlive the frame. Call arguments
// are borrows and excluded — except append's, which land in the slice and
// outlive the call — and everything inside a closure counts, since a
// stored closure retains what it captures.
func (a *poolScope) storedTokens(e ast.Expr, s *pstate) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	add := func(id *ast.Ident) {
		obj := a.identObj(id)
		if obj == nil || seen[obj] || a.tokens[obj] == nil || !needsRelease(s.st[obj]) {
			return
		}
		seen[obj] = true
		out = append(out, obj)
	}
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				walk(m.Body, true)
				return false
			case *ast.CallExpr:
				if inLit {
					return true
				}
				if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
					if b, ok := a.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						for _, arg := range m.Args[1:] {
							walk(arg, inLit)
						}
					}
				}
				return false
			case *ast.Ident:
				add(m)
			}
			return true
		})
	}
	walk(e, false)
	return out
}

// escapeEvent handles a token stored beyond the frame: sanctioned custody
// transfer in an owns function, a finding otherwise.
func (a *poolScope) escapeEvent(s *pstate, obj types.Object, n ast.Node, how string) {
	s.st[obj] = stTransferred // either sanctioned, or reported once below
	if a.owns {
		return
	}
	a.report(a.posOf(n), "pooled value "+a.borrowedAt(obj)+" "+how+
		"; mark the enclosing function "+ownsMarker+" to transfer custody, or release it locally")
}

// ---- acquires -----------------------------------------------------------

// acquireInfo describes what a call hands to its caller: which result
// indices carry pool custody, plus the error result to associate for
// nil-refinement. label names the callee in messages.
type acquireInfo struct {
	owned  map[int]bool
	errIdx int
	label  string
}

func (a *poolScope) acquireOf(call *ast.CallExpr) *acquireInfo {
	info := a.pkg.Info
	if syncPoolMethod(info, call) == "Get" {
		return &acquireInfo{owned: map[int]bool{0: true}, errIdx: -1, label: "sync.Pool.Get"}
	}
	fn := staticFuncRef(info, call.Fun)
	if fn == nil {
		return nil
	}
	cf := a.ix.Funcs[funcIDOf(fn)]
	if cf == nil || len(cf.OwnsResults) == 0 {
		return nil
	}
	ai := &acquireInfo{owned: map[int]bool{}, errIdx: -1, label: shortID(funcIDOf(fn))}
	for _, k := range cf.OwnsResults {
		ai.owned[k] = true
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		for j := 0; j < sig.Results().Len(); j++ {
			if types.Identical(sig.Results().At(j).Type(), types.Universe.Lookup("error").Type()) {
				ai.errIdx = j
				break
			}
		}
	}
	return ai
}

// unwrapAcquire peels parens and type assertions off an acquiring call:
// pool.Get().(*[]float64) acquires like pool.Get().
func (a *poolScope) unwrapAcquire(e ast.Expr) (*ast.CallExpr, *acquireInfo) {
	x := ast.Unparen(e)
	if ta, ok := x.(*ast.TypeAssertExpr); ok {
		x = ast.Unparen(ta.X)
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	ai := a.acquireOf(call)
	if ai == nil {
		return nil, nil
	}
	return call, ai
}

func (a *poolScope) bind(s *pstate, obj types.Object, n ast.Node) {
	if st, ok := s.st[obj]; ok && needsRelease(st) {
		a.report(a.posOf(n), "pooled value "+a.borrowedAt(obj)+
			" is overwritten while still live; release it first")
	}
	ti := a.tokens[obj]
	if ti == nil {
		ti = &tokenInfo{name: obj.Name()}
		a.tokens[obj] = ti
	}
	ti.acquire = a.posOf(n)
	ti.usedAfterFree = false
	s.st[obj] = stLive
}

// bindAcquire distributes an acquiring call's owned results over the
// assignment targets, reporting discarded custody and recording the error
// association for branch refinement.
func (a *poolScope) bindAcquire(s *pstate, call *ast.CallExpr, ai *acquireInfo, lhs []ast.Expr) {
	var toks []types.Object
	for k := range ai.owned {
		if k >= len(lhs) {
			if len(lhs) == 1 {
				continue // single-target binding of a multi-result call is impossible in Go
			}
			continue
		}
		id, ok := ast.Unparen(lhs[k]).(*ast.Ident)
		if !ok || id.Name == "_" {
			a.report(a.posOf(call), "owned result of "+ai.label+
				" is discarded; the pooled value can never be released")
			continue
		}
		obj := a.identObj(id)
		if obj == nil {
			continue
		}
		a.bind(s, obj, call)
		toks = append(toks, obj)
	}
	if len(toks) == 0 || ai.errIdx < 0 || ai.errIdx >= len(lhs) {
		return
	}
	if id, ok := ast.Unparen(lhs[ai.errIdx]).(*ast.Ident); ok && id.Name != "_" {
		if errObj := a.identObj(id); errObj != nil {
			s.assoc[errObj] = toks
		}
	}
}

// ---- statement handlers -------------------------------------------------

func (a *poolScope) handleExprStmt(st *ast.ExprStmt, s *pstate) {
	if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
		if ai := a.acquireOf(call); ai != nil {
			a.report(a.posOf(call), "owned result of "+ai.label+
				" is discarded; the pooled value can never be released")
		}
	}
	a.scanExpr(st.X, s)
}

func (a *poolScope) handleAssign(st *ast.AssignStmt, s *pstate) {
	for _, rhs := range st.Rhs {
		a.scanExpr(rhs, s)
	}
	// Escapes: a live token stored through a selector/index/deref target, or
	// into a variable declared outside this scope, outlives the frame.
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		switch {
		case len(st.Rhs) == len(st.Lhs):
			rhs = st.Rhs[i]
		case len(st.Rhs) == 1:
			rhs = st.Rhs[0]
		default:
			continue
		}
		stored := a.storedTokens(rhs, s)
		if len(stored) == 0 {
			continue
		}
		if a.escapeTarget(lhs) {
			for _, obj := range stored {
				a.escapeEvent(s, obj, st, "is stored into longer-lived state")
			}
		}
	}
	// Bindings: distribute acquiring calls over their targets.
	if len(st.Rhs) == 1 {
		if call, ai := a.unwrapAcquire(st.Rhs[0]); ai != nil {
			a.bindAcquire(s, call, ai, st.Lhs)
			return
		}
	}
	if len(st.Rhs) == len(st.Lhs) {
		for i := range st.Rhs {
			if call, ai := a.unwrapAcquire(st.Rhs[i]); ai != nil {
				a.bindAcquire(s, call, ai, st.Lhs[i:i+1])
				continue
			}
			a.nonAcquireTarget(s, st, st.Lhs[i], st.Rhs[i])
		}
		return
	}
	for _, lhs := range st.Lhs {
		a.nonAcquireTarget(s, st, lhs, nil)
	}
}

// nonAcquireTarget handles assignment to an existing token variable from a
// non-acquiring source: the old buffer is lost if still live.
func (a *poolScope) nonAcquireTarget(s *pstate, st *ast.AssignStmt, lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	obj := a.identObj(id)
	if obj == nil {
		return
	}
	if _, isAssoc := s.assoc[obj]; isAssoc && st.Tok == token.ASSIGN {
		delete(s.assoc, obj) // error var reassigned: old association is stale
	}
	if a.tokens[obj] == nil {
		return
	}
	cur, tracked := s.st[obj]
	if !tracked {
		return
	}
	if needsRelease(cur) {
		a.report(a.posOf(st), "pooled value "+a.borrowedAt(obj)+
			" is overwritten while still live; release it first")
	}
	if rhs != nil && a.isNil(rhs) {
		s.st[obj] = stNil
		return
	}
	s.st[obj] = stNil
}

// escapeTarget reports whether an assignment target stores beyond the
// current frame: field/element/pointer targets, or variables declared
// outside this scope (captured or package-level).
func (a *poolScope) escapeTarget(lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		if l.Name == "_" {
			return false
		}
		obj := a.identObj(l)
		if obj == nil {
			return false
		}
		return !declaredWithin(obj, a.scope)
	}
	return false
}

func (a *poolScope) handleDecl(st *ast.DeclStmt, s *pstate) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			a.scanExpr(v, s)
		}
		if len(vs.Values) == 1 {
			if call, ai := a.unwrapAcquire(vs.Values[0]); ai != nil {
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				a.bindAcquire(s, call, ai, lhs)
			}
			continue
		}
		for i, v := range vs.Values {
			if call, ai := a.unwrapAcquire(v); ai != nil && i < len(vs.Names) {
				a.bindAcquire(s, call, ai, []ast.Expr{vs.Names[i]})
			}
		}
	}
}

func (a *poolScope) handleDefer(st *ast.DeferStmt, s *pstate) {
	call := st.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// defer func() { ... }(): releases in the body run at exit.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				for _, ev := range a.classifyReleases(inner, s) {
					a.applyRelease(s, ev, true)
				}
			}
			return true
		})
		for _, arg := range call.Args {
			a.scanExpr(arg, s)
		}
		return
	}
	evs := a.classifyReleases(call, s)
	for _, ev := range evs {
		a.applyRelease(s, ev, true)
	}
	if len(evs) == 0 {
		a.scanExpr(call, s)
	}
}

func (a *poolScope) handleReturn(st *ast.ReturnStmt, s *pstate) {
	refs := map[types.Object]bool{}
	for _, res := range st.Results {
		a.scanExpr(res, s)
		for _, obj := range a.storedTokens(res, s) {
			refs[obj] = true
		}
	}
	pos := a.posOf(st)
	for obj, state := range s.st {
		if !needsRelease(state) {
			continue
		}
		if refs[obj] {
			if a.owns {
				s.st[obj] = stTransferred
				continue
			}
			a.report(pos, "pooled value "+a.borrowedAt(obj)+
				" is returned without an ownership annotation; mark the function "+
				ownsMarker+" so callers release it")
			continue
		}
		verb := "is not released"
		if state == stMaybeLive {
			verb = "may not be released"
		}
		a.report(pos, "pooled value "+a.borrowedAt(obj)+" "+verb+
			" on this return path; add the missing release or defer it")
	}
}

func (a *poolScope) handleGo(st *ast.GoStmt, s *pstate) {
	for obj, state := range s.st {
		if !needsRelease(state) {
			continue
		}
		if referencesObj(a.pkg.Info, st.Call, obj) {
			a.report(a.posOf(st), "pooled value "+a.borrowedAt(obj)+
				" is captured by a goroutine whose lifetime the checker cannot see; "+
				"release it on the spawning side or restructure")
			s.st[obj] = stTransferred // reported once; don't re-flag as a leak
		}
	}
}

// referencesObj reports whether any identifier under n resolves to obj.
func referencesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
