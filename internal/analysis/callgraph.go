package analysis

import (
	"go/types"
	"sort"
	"strings"
)

// Index is the whole-module call graph: function summaries by ID, interface
// method keys resolved to their module-defined implementers, and memoized
// reachability.
type Index struct {
	Funcs map[string]*FuncEffects
	ids   []string            // sorted, for deterministic iteration
	impls map[string][]string // "iface:<pkg>.<iface>.<method>" -> fn IDs
	reach map[string][]string
}

// IDs returns every function ID in sorted order.
func (ix *Index) IDs() []string { return ix.ids }

// Implementers returns the function IDs an interface call key dispatches to.
func (ix *Index) Implementers(key string) []string { return ix.impls[key] }

// BuildIndex computes the function summaries of every non-test unit and
// links them into a call graph.
func BuildIndex(pkgs []*Package) *Index {
	ix := &Index{
		Funcs: map[string]*FuncEffects{},
		impls: map[string][]string{},
		reach: map[string][]string{},
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		for _, fx := range computePackageEffects(pkg) {
			if _, dup := ix.Funcs[fx.ID]; dup {
				continue
			}
			ix.Funcs[fx.ID] = fx
			ix.ids = append(ix.ids, fx.ID)
		}
	}
	sort.Strings(ix.ids)
	ix.resolveInterfaces(pkgs)
	return ix
}

// resolveInterfaces maps every "iface:" call key referenced by a summary to
// the module-defined concrete types that implement the interface, by
// structural method-set checks against the freshly loaded types. Types
// declared in test files do not register as implementers: test fakes must
// not add edges to production reachability.
func (ix *Index) resolveInterfaces(pkgs []*Package) {
	need := map[string]bool{}
	for _, fx := range ix.Funcs {
		for _, c := range fx.Calls {
			if strings.HasPrefix(c.Callee, "iface:") {
				need[c.Callee] = true
			}
		}
	}
	if len(need) == 0 {
		return
	}

	type namedType struct {
		named *types.Named
		pkg   *types.Package
	}
	ifaces := map[string]*types.Interface{} // "<pkg>.<name>"
	var concrete []namedType
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "_test") || pkg.Pkg == nil {
			continue
		}
		nonTest := map[string]bool{}
		for _, f := range pkg.Files {
			if !f.Test {
				nonTest[f.Filename] = true
			}
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if !nonTest[pkg.Fset.Position(tn.Pos()).Filename] {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				ifaces[pkg.Pkg.Path()+"."+name] = iface
			} else {
				concrete = append(concrete, namedType{named, pkg.Pkg})
			}
		}
	}

	var keys []string
	for k := range need {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		rest := strings.TrimPrefix(key, "iface:")
		mdot := strings.LastIndex(rest, ".")
		if mdot < 0 {
			continue
		}
		method := rest[mdot+1:]
		qual := rest[:mdot] // "<pkg>.<iface>"
		iface, ok := ifaces[qual]
		if !ok {
			continue // interface defined outside the module: opaque dispatch
		}
		var targets []string
		for _, nt := range concrete {
			recv := types.Type(nt.named)
			if !types.Implements(recv, iface) {
				recv = types.NewPointer(nt.named)
				if !types.Implements(recv, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(nt.named), true, nt.pkg, method)
			if fn, ok := obj.(*types.Func); ok {
				if id := funcIDOf(fn); id != "" {
					targets = append(targets, id)
				}
			}
		}
		sort.Strings(targets)
		targets = dedupSorted(targets)
		ix.impls[key] = targets
	}
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || s[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// expand resolves one call-edge key to the function IDs it can reach:
// itself for a static edge whose target is summarized, every registered
// implementer for an interface edge.
func (ix *Index) expand(callee string) []string {
	if id, ok := strings.CutPrefix(callee, "fn:"); ok {
		if _, known := ix.Funcs[id]; known {
			return []string{id}
		}
		return nil
	}
	return ix.impls[callee]
}

// Reachable returns the sorted set of function IDs statically reachable
// from id, including id itself, following both direct and interface edges.
func (ix *Index) Reachable(id string) []string {
	if r, ok := ix.reach[id]; ok {
		return r
	}
	seen := map[string]bool{id: true}
	queue := []string{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		fx := ix.Funcs[cur]
		if fx == nil {
			continue
		}
		for _, c := range fx.Calls {
			for _, next := range ix.expand(c.Callee) {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	ix.reach[id] = out
	return out
}
