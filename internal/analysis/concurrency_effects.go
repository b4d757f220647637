package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file is the effects-pass half of the concurrency-protocol layer: a
// path domain for pathWalker that records, over each function body, mutex
// acquire/release protocol (including defer pairing and RWMutex modes),
// channel operations with their guard context, and the held-lock set and
// go-statement membership of every call site. lockorder in
// concurrency_checks.go consumes only these facts plus the call graph.

// syncMethod resolves a call to a sync primitive method and returns its
// qualified name ("Mutex.Lock", "RWMutex.RLock", "WaitGroup.Wait", ...)
// plus the receiver expression. Embedded mutexes resolve too: the method
// object still belongs to sync even when the receiver is the embedding
// struct.
func syncMethod(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	id := funcIDOf(fn) // "sync.(Mutex).Lock"
	rest, ok := strings.CutPrefix(id, "sync.(")
	if !ok {
		return "", nil
	}
	return strings.Replace(rest, ").", ".", 1), sel.X
}

// concObjectID renders the stable identity of a mutex or channel
// expression: "pkgpath.Type.field" for a struct field, "pkgpath.name" for
// a package-level variable, "local:name" for locals, "" when the
// expression is too dynamic to name. Field identities are what the
// //declint:locks-after grammar names (suffix-matched).
func concObjectID(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return "local:" + v.Name()
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + x.Sel.Name
			}
			return ""
		}
		if pn := pkgNameOf(info, x.X); pn != nil {
			return pn.Imported().Path() + "." + x.Sel.Name
		}
		return ""
	case *ast.StarExpr:
		return concObjectID(info, x.X)
	}
	return ""
}

// structPrefixOf returns the "pkgpath.Type." prefix of a field identity, or
// "" for non-field identities — the scope within which a close(stop) makes
// a later <-done a join rather than an unbounded block.
func structPrefixOf(id string) string {
	i := strings.LastIndex(id, ".")
	if i < 0 || strings.HasPrefix(id, "local:") {
		return ""
	}
	if strings.LastIndex(id[:i], ".") < 0 {
		return "" // "pkg.var": package-level, no struct scope
	}
	return id[:i+1]
}

// ctxDoneExpr reports whether e is ctx.Done().
func ctxDoneExpr(info *types.Info, e ast.Expr) bool {
	x, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return isContextType(s.Recv())
	}
	return false
}

// timerExpr reports whether e is time.After(...) or a time.Ticker/Timer C
// field — a time-bounded wait.
func timerExpr(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return selectsPkgFunc(info, ast.Unparen(x.Fun), "time", "After")
	case *ast.SelectorExpr:
		if x.Sel.Name != "C" {
			return false
		}
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil &&
				n.Obj().Pkg().Path() == "time" {
				return true
			}
		}
	}
	return false
}

// ctxWaitExpr: any wait bounded by cancellation or time.
func ctxWaitExpr(info *types.Info, e ast.Expr) bool {
	return ctxDoneExpr(info, e) || timerExpr(info, e)
}

// concState is the abstract state of one execution path: held locks in
// order, pending deferred releases, and the channels closed so far.
// Joins intersect held and defers (a lock held on only one arm is not held
// after the join) and union closed (a close on any path makes a later
// receive on a sibling channel a join).
type concState struct {
	held   []string
	defers []string
	closed map[string]bool
}

func newConcState() *concState {
	return &concState{closed: map[string]bool{}}
}

func (s *concState) heldIDs() []string {
	if len(s.held) == 0 {
		return nil
	}
	out := slices.Clone(s.held)
	sort.Strings(out)
	return out
}

// concWalker is the concurrency layer's path domain over one function
// body (or one in-place closure body), appending facts to fx.
type concWalker struct {
	pkg    *Package
	fx     *FuncEffects
	pw     *pathWalker[*concState]
	goLits map[*ast.FuncLit]bool
	// heldAt / goAt annotate the CallSites recorded by the effects walker:
	// held mutexes and go-statement membership, keyed by rendered position.
	heldAt map[string][]string
	goAt   map[string]bool
}

func (w *concWalker) clone(s *concState) *concState {
	return &concState{held: slices.Clone(s.held), defers: slices.Clone(s.defers), closed: maps.Clone(s.closed)}
}

func (w *concWalker) join(dst *concState, from []*concState) {
	// common keeps the entries of from[0]'s list that every path has.
	common := func(list func(*concState) []string) []string {
		var out []string
		for _, x := range list(from[0]) {
			all := true
			for _, o := range from[1:] {
				all = all && slices.Contains(list(o), x)
			}
			if all {
				out = append(out, x)
			}
		}
		return out
	}
	closed := map[string]bool{}
	for _, b := range from {
		maps.Copy(closed, b.closed)
	}
	held := common(func(s *concState) []string { return s.held })
	defers := common(func(s *concState) []string { return s.defers })
	dst.held, dst.defers, dst.closed = held, defers, closed
}

func (w *concWalker) branch(cond ast.Expr, st *concState) (then, els *concState) {
	w.expr(cond, st)
	return w.clone(st), w.clone(st)
}

func (w *concWalker) backEdge(ast.Stmt, *concState, *concState) {}

func (w *concWalker) scopeExit(ast.Node, *concState, bool) {}

func posKey(p token.Position) string {
	return p.Filename + ":" + strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Column)
}

func (w *concWalker) bug(kind string, n ast.Node) {
	w.fx.LockBugs = append(w.fx.LockBugs, Site{Kind: kind, Pos: w.pkg.pos(n)})
}

// exitCheck reports locks still held at a function exit that no deferred
// unlock releases.
func (w *concWalker) exitCheck(st *concState, n ast.Node) {
	released := map[string]bool{}
	for _, d := range st.defers {
		released[d] = true
	}
	seen := map[string]bool{}
	for _, h := range st.held {
		if released[h] || seen[h] {
			continue
		}
		seen[h] = true
		w.bug("lock of "+h+" is still held at this return with no deferred unlock", n)
	}
}

func (w *concWalker) step(s ast.Stmt, st *concState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, st)
		}
		for _, l := range s.Lhs {
			w.expr(l, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.SendStmt:
		w.expr(s.Value, st)
		w.chanOp("send", s.Chan, s, st, false, false)
	case *ast.GoStmt:
		w.goStmt(s, st)
	case *ast.DeferStmt:
		w.deferStmt(s, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, st)
		}
		w.exitCheck(st, s)
	case *ast.ForStmt:
		w.expr(s.Cond, st)
	case *ast.RangeStmt:
		w.expr(s.X, st)
		if tv, ok := w.pkg.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.chanOp("recv", s.X, s, st, false, false)
			}
		}
	case *ast.SwitchStmt:
		w.expr(s.Tag, st)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e, st)
		}
	}
}

// comm applies one select clause's communication. It cannot block forever
// when the select has a default, ctx.Done() or timer clause.
func (w *concWalker) comm(sel *ast.SelectStmt, cc *ast.CommClause, st *concState) {
	guarded := false
	for _, c := range sel.Body.List {
		comm := c.(*ast.CommClause).Comm
		if comm == nil {
			guarded = true
		} else if e := commRecvExpr(comm); e != nil && ctxWaitExpr(w.pkg.Info, e.X) {
			guarded = true
		}
	}
	if send, ok := cc.Comm.(*ast.SendStmt); ok {
		w.expr(send.Value, st)
		w.chanOp("send", send.Chan, send, st, true, guarded)
	} else if ue := commRecvExpr(cc.Comm); ue != nil {
		w.recvOp(ue, st, true, guarded)
	}
}

func commRecvExpr(comm ast.Stmt) *ast.UnaryExpr {
	var e ast.Expr
	switch comm := comm.(type) {
	case *ast.ExprStmt:
		e = comm.X
	case *ast.AssignStmt:
		if len(comm.Rhs) == 1 {
			e = comm.Rhs[0]
		}
	}
	if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
		return ue
	}
	return nil
}

// chanOp records one send/recv/close. For a bare receive, a close of a
// sibling field channel of the same struct earlier on the path marks the
// receive join-guarded (the Stop-closes-stop-then-waits-on-done idiom).
func (w *concWalker) chanOp(op string, ch ast.Expr, at ast.Node, st *concState, inSelect, guarded bool) {
	id := concObjectID(w.pkg.Info, ch)
	if op == "recv" && ctxDoneExpr(w.pkg.Info, ch) {
		id = "ctx"
	}
	co := ChanOp{
		Op: op, Chan: id, Pos: w.pkg.pos(at),
		Select: inSelect, CtxGuarded: guarded, Held: st.heldIDs(),
	}
	if op == "recv" && !inSelect {
		if ctxWaitExpr(w.pkg.Info, ch) {
			co.CtxGuarded = true
		}
		if prefix := structPrefixOf(id); prefix != "" {
			for closed := range st.closed {
				if closed != id && strings.HasPrefix(closed, prefix) {
					co.JoinGuarded = true
					break
				}
			}
		}
	}
	if op == "close" && id != "" {
		st.closed[id] = true
	}
	w.fx.ChanOps = append(w.fx.ChanOps, co)
}

func (w *concWalker) recvOp(ue *ast.UnaryExpr, st *concState, inSelect, guarded bool) {
	w.expr(ue.X, st)
	if !guarded && ctxWaitExpr(w.pkg.Info, ue.X) {
		guarded = true
	}
	w.chanOp("recv", ue.X, ue, st, inSelect, guarded)
}

// goStmt marks the spawned call so lockorder does not follow it under the
// caller's locks; its arguments are evaluated on the caller's path. A
// go-closure's body belongs to its goroutine and is not walked here.
func (w *concWalker) goStmt(g *ast.GoStmt, st *concState) {
	w.goAt[posKey(w.pkg.pos(g.Call))] = true
	for _, a := range g.Call.Args {
		w.expr(a, st)
	}
}

func (w *concWalker) deferStmt(d *ast.DeferStmt, st *concState) {
	call := d.Call
	if m, recv := syncMethod(w.pkg.Info, call); m != "" {
		switch m {
		case "Mutex.Unlock", "RWMutex.Unlock", "RWMutex.RUnlock":
			if id := concObjectID(w.pkg.Info, recv); id != "" {
				st.defers = append(st.defers, id)
			}
		}
		return
	}
	for _, a := range call.Args {
		w.expr(a, st)
	}
}

// expr walks an expression on the current path. Function literals are NOT
// entered here: closures called in place are interpreted separately with a
// fresh state (their acquire sites still belong to this function), and
// go-closures belong to their goroutine.
func (w *concWalker) expr(e ast.Expr, st *concState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.recvOp(n, st, false, false)
				return false
			}
		case *ast.CallExpr:
			w.call(n, st)
			return false
		}
		return true
	})
}

func (w *concWalker) call(call *ast.CallExpr, st *concState) {
	info := w.pkg.Info
	for _, a := range call.Args {
		w.expr(a, st)
	}
	// Mutex operations change the path state; any other sync call, such
	// as WaitGroup.Wait, is an ordinary call site with its held locks.
	if m, recv := syncMethod(info, call); strings.Contains(m, "Mutex.") {
		w.syncOp(m, recv, call, st)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "close" && len(call.Args) == 1 {
				w.chanOp("close", call.Args[0], call, st, false, false)
			}
			return
		}
	}
	if held := st.heldIDs(); len(held) > 0 {
		w.heldAt[posKey(w.pkg.pos(call))] = held
	}
	w.expr(call.Fun, st)
}

// syncOp applies one mutex operation to the path state, recording acquire
// sites, nested-acquire edges, and protocol bugs.
func (w *concWalker) syncOp(method string, recv ast.Expr, call *ast.CallExpr, st *concState) {
	id := concObjectID(w.pkg.Info, recv)
	if id == "" {
		return
	}
	switch method {
	case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock":
		mode := "w"
		if method == "RWMutex.RLock" {
			mode = "r"
		}
		if slices.Contains(st.held, id) {
			w.bug("double lock of "+id+" on this path (already held)", call)
		}
		for _, h := range st.held {
			if h != id {
				w.fx.LockEdges = append(w.fx.LockEdges,
					LockEdge{Outer: h, Inner: id, Pos: w.pkg.pos(call)})
			}
		}
		st.held = append(st.held, id)
		w.fx.Locks = append(w.fx.Locks, LockOp{Mutex: id, Mode: mode, Pos: w.pkg.pos(call)})
	case "Mutex.Unlock", "RWMutex.Unlock", "RWMutex.RUnlock":
		for i := len(st.held) - 1; i >= 0; i-- {
			if st.held[i] == id {
				st.held = append(st.held[:i], st.held[i+1:]...)
				return
			}
		}
		w.bug("unlock of "+id+" without a matching lock on this path", call)
	}
}

// analyzeConcurrency walks fd's body and every in-place closure with the
// path walker, then annotates the already-recorded CallSites with held-lock
// sets and go-statement membership.
func analyzeConcurrency(pkg *Package, fd *ast.FuncDecl, fx *FuncEffects) {
	w := &concWalker{
		pkg:    pkg,
		fx:     fx,
		goLits: map[*ast.FuncLit]bool{},
		heldAt: map[string][]string{},
		goAt:   map[string]bool{},
	}
	w.pw = &pathWalker[*concState]{d: w, info: pkg.Info}
	// Pre-pass: which closures are go-closure bodies?
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				w.goLits[lit] = true
			}
		case *ast.FuncLit:
			lits = append(lits, n)
		}
		return true
	})

	walk := func(body *ast.BlockStmt) {
		st := newConcState()
		if !w.pw.stmts(body.List, st) {
			w.exitCheck(st, body)
		}
	}
	walk(fd.Body)
	// In-place closures: interpret with fresh state so their acquire sites
	// and channel ops register under this function's ID (a closure that
	// locks is how FlattenSpans-style recursive walkers are written), while
	// go-closures belong to their goroutine.
	for _, lit := range lits {
		if !w.goLits[lit] {
			walk(lit.Body)
		}
	}
	for i := range fx.Calls {
		key := posKey(fx.Calls[i].Pos)
		if held, ok := w.heldAt[key]; ok {
			fx.Calls[i].Held = held
		}
		if w.goAt[key] {
			fx.Calls[i].Go = true
		}
	}
}
