package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// hotMarker tags a function whose body and whole static call closure must
// stay allocation-free; see checkHotAlloc for the contract.
const hotMarker = "//declint:hot"

// Ownership directives for poollife. ownsMarker on a function declares that
// the caller receives custody of one or more pool-borrowed results and must
// release them; transfersMarker declares that the function takes custody of
// a parameter (or its receiver) away from the caller. Both claims are
// verified at the callee — see checkPoolLife.
//
//	//declint:owns [result k[,k...]] [explanation]     (default: result 0)
//	//declint:transfers [param k[,k...]|receiver] [explanation]  (default: param 0)
const (
	ownsMarker      = "//declint:owns"
	transfersMarker = "//declint:transfers"
)

// locksAfterMarker on a function declares that the mutexes it acquires are
// ordered after the named mutex in the module lock order, sanctioning that
// nested-acquire edge. The claim is verified: a locks-after naming an edge
// the lock graph never establishes is a lockorder finding.
//
//	//declint:locks-after <pkg.Type.field> [explanation]
const locksAfterMarker = "//declint:locks-after"

// Site is one effect occurrence: an allocation, a forbidden-source read, or
// a context root, classified by kind.
type Site struct {
	Kind string
	Pos  token.Position
}

// CallSite is one outgoing call edge. Callee is either "fn:<func-id>" for a
// statically resolved target or "iface:<pkg>.<iface>.<method>" for dynamic
// dispatch through a named interface; the latter is resolved to concrete
// implementers at index time (see Index).
type CallSite struct {
	Callee string
	Pos    token.Position
	// Go marks a call that is the operand of a go statement: the callee
	// runs on a new goroutine, so it holds none of the caller's locks and
	// blocking there does not block the caller.
	Go bool
	// Held lists the non-local mutex IDs held at the call site, sorted —
	// the raw material of lockorder's cross-function edge and
	// held-across-blocking analysis.
	Held []string
}

// LockOp is one mutex acquire site. Mutex is the stable identity — a
// "pkgpath.Type.field" for struct-field mutexes, "pkgpath.name" for
// package-level ones, "local:name" for locals (excluded from cross-function
// reasoning) — and Mode is "w" (Lock) or "r" (RLock).
type LockOp struct {
	Mutex string
	Mode  string
	Pos   token.Position
}

// LockEdge is one intra-function nested acquire: Inner was acquired while
// Outer was held. Edges feed the whole-module lock-order graph.
type LockEdge struct {
	Outer string
	Inner string
	Pos   token.Position
}

// ChanOp is one channel operation. Chan uses the same identity scheme as
// LockOp.Mutex. Select marks ops that are a select communication clause;
// CtxGuarded marks ops inside a select that also has a ctx.Done()/timer
// case or a default clause (so the op cannot block forever); JoinGuarded
// marks a receive that is a join on a completion channel — the function
// closed a sibling stop channel of the same struct earlier on the path.
type ChanOp struct {
	Op          string // "send", "recv", "close"
	Chan        string
	Pos         token.Position
	Select      bool
	CtxGuarded  bool
	JoinGuarded bool
	Held        []string
}

// FuncEffects is the intraprocedural summary of one function: what it
// allocates, which forbidden sources it reads, where its calls go, and how
// it treats contexts. Closures are folded into their enclosing declaration —
// a FuncLit contributes a "closure" allocation plus all of its body's
// effects under the enclosing function's ID. Summaries are computed from
// non-test files only.
type FuncEffects struct {
	ID       string
	PkgPath  string
	Pos      token.Position
	Exported bool
	Hot      bool

	Allocs  []Site
	Sources []Site
	Calls   []CallSite

	// Ownership facts for poollife. Acquires/Releases are the sync.Pool
	// Get/Put call sites in the body; OwnsResults, TransfersParams and
	// TransfersRecv mirror the //declint:owns and //declint:transfers doc
	// directives (result/parameter indices whose custody crosses the call);
	// DirectiveErrs records malformed ownership directives so a typo cannot
	// silently disable enforcement. GlobalWrites are assignments whose
	// target roots at a package-level variable — the raw material of an
	// impure memoized stage (see checkMemoPure).
	Acquires        []Site
	Releases        []Site
	OwnsResults     []int
	TransfersParams []int
	TransfersRecv   bool
	DirectiveErrs   []Site
	GlobalWrites    []Site

	// Context facts for ctxflow: HasCtx when the signature takes a
	// context.Context, CtxParam/CtxPos name the first such parameter,
	// CtxUsed when any ctx parameter is referenced in the body (a parameter
	// named or declared _ counts as an explicit, documented drop), and
	// CtxRoots are the context.Background/TODO call sites in the body.
	HasCtx   bool
	CtxParam string
	CtxUsed  bool
	CtxPos   token.Position
	CtxRoots []Site

	// Concurrency facts for lockorder, produced by the path-sensitive
	// walker in concurrency_effects.go. Locks are the acquire sites;
	// LockBugs are intra-function protocol violations found by the walker
	// itself (double-lock on a path, unlock-without-lock, lock leaked past
	// a return); LockEdges are nested acquires; ChanOps are channel
	// operations with their guards and held locks. LocksAfter mirrors the
	// //declint:locks-after doc directives, with malformed ones recorded in
	// LocksAfterErrs.
	Locks          []LockOp
	LockEdges      []LockEdge
	LockBugs       []Site
	ChanOps        []ChanOp
	LocksAfter     []string
	LocksAfterErrs []Site
}

// funcIDOf renders the stable identity of a function or method:
// "pkg/path.Name" for package functions, "pkg/path.(Recv).Name" for methods
// (pointer receivers and generic instantiations collapse onto the origin).
func funcIDOf(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + ".(" + n.Obj().Name() + ")." + fn.Name()
		}
		return fn.Pkg().Path() + ".(?)." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// docHasMarker reports whether the doc comment carries the given directive
// on a line of its own.
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// syncPoolMethod reports which sync.Pool method a call invokes ("Get" or
// "Put"), or "" when the call is not a sync.Pool method call. The receiver
// may be a field or local of type sync.Pool or *sync.Pool.
func syncPoolMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil ||
		n.Obj().Pkg().Path() != "sync" || n.Obj().Name() != "Pool" {
		return ""
	}
	if name := sel.Sel.Name; name == "Get" || name == "Put" {
		return name
	}
	return ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// pointerShaped reports whether boxing a value of type t into an interface
// copies a single pointer word and therefore cannot allocate: pointers,
// channels, maps, functions, and unsafe pointers. Everything else (ints,
// floats, strings, slices, structs) allocates when converted to an
// interface on the general path, which is what hotalloc polices.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// staticFuncRef resolves e to the *types.Func it names, when e is a direct
// reference: a plain function ident, a package-qualified function, or a
// method value/expression. Nil for anything dynamic.
func staticFuncRef(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil
		}
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// collectFuncVars maps local variables to the static functions assigned to
// them anywhere in the declaration, so a call through a func-typed local
// (`pass := slidingMin; ...; pass(line)`) resolves to every candidate.
func collectFuncVars(info *types.Info, fd *ast.FuncDecl) map[types.Object][]*types.Func {
	vars := map[types.Object][]*types.Func{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		fn := staticFuncRef(info, rhs)
		if fn == nil {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if _, isVar := obj.(*types.Var); isVar {
			vars[obj] = append(vars[obj], fn)
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return vars
}

// resolveCallTargets returns the call-edge keys for a callee expression:
// zero or more "fn:<id>" entries, or one "iface:<pkg>.<iface>.<method>"
// entry for dispatch through a named interface.
func resolveCallTargets(info *types.Info, fun ast.Expr, funcVars map[types.Object][]*types.Func) []string {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			if id := funcIDOf(obj); id != "" {
				return []string{"fn:" + id}
			}
		case *types.Var:
			var out []string
			for _, fn := range funcVars[obj] {
				if id := funcIDOf(fn); id != "" {
					out = append(out, "fn:"+id)
				}
			}
			return out
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok || sel.Kind() == types.FieldVal {
				return nil
			}
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				if _, isIface := named.Underlying().(*types.Interface); isIface {
					if named.Obj().Pkg() == nil {
						return nil // universe interfaces (error)
					}
					return []string{"iface:" + named.Obj().Pkg().Path() + "." +
						named.Obj().Name() + "." + fn.Name()}
				}
			}
			if _, isIface := recv.Underlying().(*types.Interface); isIface {
				return nil // anonymous interface or type parameter
			}
			if id := funcIDOf(fn); id != "" {
				return []string{"fn:" + id}
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if id := funcIDOf(fn); id != "" {
				return []string{"fn:" + id}
			}
		}
	}
	return nil
}

// isReuseAppend recognizes the sanctioned no-growth idiom
// `append(x[:0], ...)` (equivalently x[0:0]) that reuses backing storage.
func isReuseAppend(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	se, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || se.High == nil {
		return false
	}
	tv, ok := info.Types[se.High]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := intConst(tv)
	return exact && v == 0
}

func intConst(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil {
		return 0, false
	}
	s := tv.Value.ExactString()
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil
}

// rootObj peels selectors, indexes, slices, derefs, and parens down to the
// base identifier's object, or nil when the base is not a plain name.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// nondetSource classifies n as a nondeterminism source — a time.Now or
// math/rand reference, or a map range feeding order-dependent output — and
// returns its kind, or "" when n is none of them.
func nondetSource(info *types.Info, n ast.Node) string {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if selectsPkgFunc(info, n, "time", "Now") {
			return "time.Now"
		}
		if pn := pkgNameOf(info, n.X); pn != nil {
			if p := pn.Imported().Path(); p == "math/rand" || p == "math/rand/v2" {
				return "math/rand"
			}
		}
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				if sink, what := orderDependentSink(n.Body, info); sink != nil {
					return "map-ordered output (" + what + ")"
				}
			}
		}
	}
	return ""
}

// effectsWalker accumulates one function's summary during a single AST
// walk.
type effectsWalker struct {
	pkg     *Package
	fx      *FuncEffects
	ctxObjs map[types.Object]bool
	vars    map[types.Object][]*types.Func
}

func (w *effectsWalker) alloc(kind string, n ast.Node) {
	w.fx.Allocs = append(w.fx.Allocs, Site{Kind: kind, Pos: w.pkg.pos(n)})
}

func (w *effectsWalker) source(kind string, n ast.Node) {
	w.fx.Sources = append(w.fx.Sources, Site{Kind: kind, Pos: w.pkg.pos(n)})
}

func (w *effectsWalker) visit(n ast.Node) bool {
	if n == nil {
		return false
	}
	info := w.pkg.Info
	switch n := n.(type) {
	case *ast.FuncLit:
		w.alloc("closure", n)
	case *ast.CallExpr:
		w.visitCall(n)
	case *ast.CompositeLit:
		if tv, ok := info.Types[n]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				w.alloc("map literal", n)
			case *types.Slice:
				w.alloc("slice literal", n)
			}
		}
	case *ast.SelectorExpr, *ast.RangeStmt:
		if kind := nondetSource(info, n); kind != "" {
			w.source(kind, n)
		}
	case *ast.Ident:
		if w.ctxObjs[info.Uses[n]] {
			w.fx.CtxUsed = true
		}
	case *ast.AssignStmt:
		if n.Tok != token.DEFINE {
			for _, lhs := range n.Lhs {
				w.visitGlobalWrite(lhs)
			}
		}
	case *ast.IncDecStmt:
		w.visitGlobalWrite(n.X)
	}
	return true
}

// visitGlobalWrite records an assignment whose target roots at a
// package-level variable, wherever it occurs (closure or not).
func (w *effectsWalker) visitGlobalWrite(lhs ast.Expr) {
	obj := rootObj(w.pkg.Info, lhs)
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	w.fx.GlobalWrites = append(w.fx.GlobalWrites,
		Site{Kind: "write to package-level " + v.Name(), Pos: w.pkg.pos(lhs)})
}

func (w *effectsWalker) visitCall(call *ast.CallExpr) {
	info := w.pkg.Info
	fun := ast.Unparen(call.Fun)

	switch syncPoolMethod(info, call) {
	case "Get":
		w.fx.Acquires = append(w.fx.Acquires, Site{Kind: "sync.Pool.Get", Pos: w.pkg.pos(call)})
	case "Put":
		w.fx.Releases = append(w.fx.Releases, Site{Kind: "sync.Pool.Put", Pos: w.pkg.pos(call)})
	}

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				w.alloc(b.Name(), call)
			case "append":
				if !isReuseAppend(info, call) {
					w.alloc("append-growth", call)
				}
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion, not a call. T(x) with interface T boxes x.
		if t := tv.Type; types.IsInterface(t) && len(call.Args) == 1 {
			w.checkBoxing(t, call.Args[0])
		}
		return
	}

	if selectsPkgFunc(info, fun, "context", "Background") {
		w.fx.CtxRoots = append(w.fx.CtxRoots, Site{Kind: "context.Background", Pos: w.pkg.pos(call)})
	} else if selectsPkgFunc(info, fun, "context", "TODO") {
		w.fx.CtxRoots = append(w.fx.CtxRoots, Site{Kind: "context.TODO", Pos: w.pkg.pos(call)})
	}

	for _, target := range resolveCallTargets(info, fun, w.vars) {
		w.fx.Calls = append(w.fx.Calls, CallSite{Callee: target, Pos: w.pkg.pos(call)})
	}

	// Interface boxing of arguments: a concrete, non-pointer-shaped value
	// passed to an interface parameter allocates.
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // f(xs...) passes the slice through, no boxing
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		w.checkBoxing(pt, arg)
	}
}

func (w *effectsWalker) checkBoxing(to types.Type, arg ast.Expr) {
	at, ok := w.pkg.Info.Types[arg]
	if !ok || at.IsNil() || at.Type == nil {
		return
	}
	if types.IsInterface(at.Type) {
		return // interface-to-interface, no new box
	}
	if _, isTP := at.Type.(*types.TypeParam); isTP {
		return
	}
	if pointerShaped(at.Type) {
		return
	}
	_ = to
	w.alloc("interface boxing", arg)
}

// directiveLine reports whether text is marker alone or marker followed by
// whitespace — so e.g. "//declint:ownship" never matches ownsMarker.
func directiveLine(text, marker string) bool {
	if !strings.HasPrefix(text, marker) {
		return false
	}
	rest := text[len(marker):]
	return rest == "" || strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "\t")
}

// parseIndexList parses a comma-separated list of non-negative indices
// ("0" or "0,1"). The bool is false on any malformed element.
func parseIndexList(s string) ([]int, bool) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}

// parseOwnershipDirectives fills the //declint:owns and //declint:transfers
// facts of fx from fd's doc comment, recording malformed or out-of-range
// directives in DirectiveErrs (reported by poollife) rather than dropping
// them silently.
func parseOwnershipDirectives(pkg *Package, fd *ast.FuncDecl, fx *FuncEffects, sig *types.Signature) {
	if fd.Doc == nil {
		return
	}
	bad := func(c *ast.Comment, msg string) {
		fx.DirectiveErrs = append(fx.DirectiveErrs, Site{Kind: msg, Pos: pkg.pos(c)})
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		switch {
		case directiveLine(text, ownsMarker):
			fields := strings.Fields(text[len(ownsMarker):])
			idxs := []int{0}
			if len(fields) > 0 && fields[0] == "result" {
				if len(fields) < 2 {
					bad(c, "malformed "+ownsMarker+": 'result' needs indices, e.g. 'result 0,1'")
					continue
				}
				var ok bool
				if idxs, ok = parseIndexList(fields[1]); !ok {
					bad(c, "malformed "+ownsMarker+": bad result index list "+strconv.Quote(fields[1]))
					continue
				}
			}
			n := sig.Results().Len()
			outOfRange := false
			for _, k := range idxs {
				if k >= n {
					bad(c, ownsMarker+" names result "+strconv.Itoa(k)+
						" but the function has only "+strconv.Itoa(n)+" result(s)")
					outOfRange = true
				}
			}
			if !outOfRange {
				fx.OwnsResults = idxs
			}
		case directiveLine(text, transfersMarker):
			fields := strings.Fields(text[len(transfersMarker):])
			if len(fields) > 0 && fields[0] == "receiver" {
				if sig.Recv() == nil {
					bad(c, transfersMarker+" receiver on a function with no receiver")
					continue
				}
				fx.TransfersRecv = true
				continue
			}
			idxs := []int{0}
			if len(fields) > 0 && fields[0] == "param" {
				if len(fields) < 2 {
					bad(c, "malformed "+transfersMarker+": 'param' needs indices, e.g. 'param 0,1'")
					continue
				}
				var ok bool
				if idxs, ok = parseIndexList(fields[1]); !ok {
					bad(c, "malformed "+transfersMarker+": bad param index list "+strconv.Quote(fields[1]))
					continue
				}
			}
			n := sig.Params().Len()
			outOfRange := false
			for _, k := range idxs {
				if k >= n {
					bad(c, transfersMarker+" names param "+strconv.Itoa(k)+
						" but the function has only "+strconv.Itoa(n)+" parameter(s)")
					outOfRange = true
				}
			}
			if !outOfRange {
				fx.TransfersParams = idxs
			}
		}
	}
}

// parseLocksAfter fills the //declint:locks-after facts of fx from fd's
// doc comment. The directive demands a mutex name; a malformed one lands in
// LocksAfterErrs so a typo cannot silently sanction a lock order.
func parseLocksAfter(pkg *Package, fd *ast.FuncDecl, fx *FuncEffects) {
	if fd.Doc == nil {
		return
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !directiveLine(text, locksAfterMarker) {
			continue
		}
		fields := strings.Fields(text[len(locksAfterMarker):])
		if len(fields) == 0 {
			fx.LocksAfterErrs = append(fx.LocksAfterErrs, Site{Pos: pkg.pos(c),
				Kind: "malformed " + locksAfterMarker + ": name the outer mutex, e.g. obs.Recorder.mu"})
			continue
		}
		fx.LocksAfter = append(fx.LocksAfter, fields[0])
	}
}

// computeFuncEffects summarizes one declaration. idSuffix disambiguates the
// (uncallable) init functions, which may legally repeat per package.
func computeFuncEffects(pkg *Package, fd *ast.FuncDecl, idSuffix string) *FuncEffects {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if obj == nil || fd.Body == nil {
		return nil
	}
	fx := &FuncEffects{
		ID:       funcIDOf(obj) + idSuffix,
		PkgPath:  pkg.Path,
		Pos:      pkg.pos(fd.Name),
		Exported: fd.Name.IsExported(),
		Hot:      docHasMarker(fd.Doc, hotMarker),
	}
	if sig, ok := obj.Type().(*types.Signature); ok {
		parseOwnershipDirectives(pkg, fd, fx, sig)
	}
	parseLocksAfter(pkg, fd, fx)
	ctxObjs := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			tv, ok := pkg.Info.Types[field.Type]
			if !ok || !isContextType(tv.Type) {
				continue
			}
			fx.HasCtx = true
			if len(field.Names) == 0 {
				// Unnamed parameter: impossible to use, explicit drop.
				fx.CtxUsed = true
				if fx.CtxParam == "" {
					fx.CtxParam = "_"
					fx.CtxPos = pkg.pos(field)
				}
				continue
			}
			for _, name := range field.Names {
				if fx.CtxParam == "" {
					fx.CtxParam = name.Name
					fx.CtxPos = pkg.pos(name)
				}
				if name.Name == "_" {
					fx.CtxUsed = true
					continue
				}
				if o := pkg.Info.Defs[name]; o != nil {
					ctxObjs[o] = true
				}
			}
		}
	}
	w := &effectsWalker{
		pkg:     pkg,
		fx:      fx,
		ctxObjs: ctxObjs,
		vars:    collectFuncVars(pkg.Info, fd),
	}
	ast.Inspect(fd.Body, w.visit)
	analyzeConcurrency(pkg, fd, fx)
	return fx
}

// computePackageEffects summarizes every function declared in the package's
// non-test files, sorted by ID for a canonical order.
func computePackageEffects(pkg *Package) []*FuncEffects {
	var out []*FuncEffects
	initSeq := 0
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			suffix := ""
			if fd.Name.Name == "init" && fd.Recv == nil {
				initSeq++
				suffix = "#" + strconv.Itoa(initSeq)
			}
			if fx := computeFuncEffects(pkg, fd, suffix); fx != nil {
				out = append(out, fx)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Pos.Offset < out[j].Pos.Offset
	})
	return out
}
