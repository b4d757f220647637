package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pathDomain is one abstract interpretation driven by pathWalker: the
// domain owns its per-path state S and the transfer functions, the walker
// owns statement dispatch and control flow. poollife (poolScope) and the
// concurrency layer (concWalker) are the two domains.
type pathDomain[S any] interface {
	clone(S) S
	// join overwrites dst with the join of from (never empty; dst may be
	// one of them).
	join(dst S, from []S)
	// step applies what a statement does on the current path outside its
	// nested statements: a simple statement (return included) in full, the
	// condition or range expression of a loop, a switch tag, or a case
	// clause's expressions.
	step(ast.Stmt, S)
	// comm applies the communication of one clause of sel.
	comm(sel *ast.SelectStmt, clause *ast.CommClause, st S)
	// branch evaluates an if condition and returns the states entering its
	// then and else arms.
	branch(cond ast.Expr, st S) (then, els S)
	// backEdge sees the state entering a loop and the state at the end of
	// one iteration.
	backEdge(loop ast.Stmt, pre, body S)
	// scopeExit runs when control leaves a block or a compound statement;
	// terminated is set when no path leaves it normally.
	scopeExit(n ast.Node, st S, terminated bool)
}

// pathWalker interprets statements path by path for one domain. Every
// statement method reports whether all paths through it ended (return,
// panic, os.Exit, or a jump). break, continue and fallthrough carry their
// state to their target: the innermost one, or the loop, switch or select
// their label names. goto ends the path. A loop is one iteration: the
// state after it joins the state before it, the end of the body, every
// continue and every break.
type pathWalker[S any] struct {
	d       pathDomain[S]
	info    *types.Info
	targets []*jumpTarget[S]
	// label names the loop, switch or select being entered: set by its
	// LabeledStmt, taken by the push of its jump target.
	label string
}

// jumpTarget collects the states jumping to the end of one breakable
// statement, or (continue) to its back edge, or (fallthrough) into the
// next case clause.
type jumpTarget[S any] struct {
	label  string
	loop   bool
	breaks []S
	conts  []S
	falls  []S
}

func (w *pathWalker[S]) stmts(list []ast.Stmt, st S) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

func (w *pathWalker[S]) stmt(s ast.Stmt, st S) bool {
	d := w.d
	switch s := s.(type) {
	case *ast.BlockStmt:
		term := w.stmts(s.List, st)
		d.scopeExit(s, st, term)
		return term
	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			w.label = s.Label.Name
		}
		term := w.stmt(s.Stmt, st)
		w.label = ""
		return term
	case *ast.ReturnStmt:
		d.step(s, st)
		return true
	case *ast.BranchStmt:
		w.jump(s, st)
		return true
	case *ast.ExprStmt:
		d.step(s, st)
		return w.exits(s.X)
	case *ast.IfStmt:
		if s.Init != nil && w.stmt(s.Init, st) {
			return true
		}
		then, els := d.branch(s.Cond, st)
		var live []S
		if !w.stmt(s.Body, then) {
			live = append(live, then)
		}
		if s.Else == nil || !w.stmt(s.Else, els) {
			live = append(live, els)
		}
		return w.merge(s, st, live)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		d.step(s, st)
		return w.loop(s, s.Body, s.Post, st)
	case *ast.RangeStmt:
		d.step(s, st)
		return w.loop(s, s.Body, nil, st)
	case *ast.SwitchStmt:
		if s.Init != nil && w.stmt(s.Init, st) {
			return true
		}
		d.step(s, st)
		return w.clauses(s, s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil && w.stmt(s.Init, st) {
			return true
		}
		return w.clauses(s, s.Body, st)
	case *ast.SelectStmt:
		return w.clauses(s, s.Body, st)
	default:
		d.step(s, st)
		return false
	}
}

// merge joins the live states into st and leaves the scope of s; no live
// state means every path through s ended.
func (w *pathWalker[S]) merge(s ast.Stmt, st S, live []S) bool {
	if len(live) == 0 {
		return true
	}
	w.d.join(st, live)
	w.d.scopeExit(s, st, false)
	return false
}

func (w *pathWalker[S]) push(loop bool) *jumpTarget[S] {
	t := &jumpTarget[S]{label: w.label, loop: loop}
	w.label = ""
	w.targets = append(w.targets, t)
	return t
}

func (w *pathWalker[S]) pop() { w.targets = w.targets[:len(w.targets)-1] }

func (w *pathWalker[S]) loop(s ast.Stmt, body *ast.BlockStmt, post ast.Stmt, st S) bool {
	pre := w.d.clone(st)
	it := w.d.clone(st)
	t := w.push(true)
	ended := w.stmts(body.List, it)
	w.pop()
	back := t.conts
	if !ended {
		back = append(back, it)
	}
	live := []S{pre}
	if len(back) > 0 {
		w.d.join(it, back)
		if post != nil {
			w.stmt(post, it)
		}
		w.d.scopeExit(body, it, false)
		w.d.backEdge(s, pre, it)
		live = append(live, it)
	}
	return w.merge(s, st, append(live, t.breaks...))
}

// clauses interprets the case or comm clauses of a switch or select as
// branches from st. A switch without a default clause may also match
// nothing; a select always runs exactly one clause.
func (w *pathWalker[S]) clauses(s ast.Stmt, body *ast.BlockStmt, st S) bool {
	t := w.push(false)
	var live []S
	exhaustive := false
	for _, c := range body.List {
		var b S
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			w.d.step(c, st)
			exhaustive = exhaustive || c.List == nil
			b, list = w.d.clone(st), c.Body
		case *ast.CommClause:
			b, list = w.d.clone(st), c.Body
			w.d.comm(s.(*ast.SelectStmt), c, b)
			exhaustive = true
		}
		if len(t.falls) > 0 {
			w.d.join(b, append(t.falls, b))
			t.falls = nil
		}
		if !w.stmts(list, b) {
			live = append(live, b)
		}
	}
	w.pop()
	if !exhaustive {
		live = append(live, st)
	}
	return w.merge(s, st, append(live, t.breaks...))
}

// jump sends the state of a break, continue or fallthrough to its target:
// the innermost one, or for a labeled jump the one carrying its label.
// goto ends the path.
func (w *pathWalker[S]) jump(s *ast.BranchStmt, st S) {
	if s.Tok == token.GOTO {
		return
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		switch {
		case s.Label != nil && s.Label.Name != t.label:
			continue
		case s.Tok == token.BREAK:
			t.breaks = append(t.breaks, w.d.clone(st))
		case s.Tok == token.FALLTHROUGH:
			t.falls = append(t.falls, w.d.clone(st))
		case s.Tok == token.CONTINUE && t.loop:
			t.conts = append(t.conts, w.d.clone(st))
		default:
			continue
		}
		return
	}
}

// exits reports whether e is a call that never returns: panic or os.Exit.
func (w *pathWalker[S]) exits(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		b, ok := w.info.Uses[id].(*types.Builtin)
		return ok && b.Name() == "panic"
	}
	return selectsPkgFunc(w.info, ast.Unparen(call.Fun), "os", "Exit")
}
