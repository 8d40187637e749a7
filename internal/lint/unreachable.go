package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unreachable reports the functions and methods of internal/... packages
// that no shipped code can run. The paper's pitch is a small LibOS and
// ERIM's is that a trusted path earns trust by being short enough to
// inspect; code that only its own tests call is weight on both.
//
// A function is live when the module call graph (callgraph.go: direct
// calls, interface dispatch, functions taken as values) reaches it from
// a root:
//
//   - every main and init, and every package's variable initialisers;
//   - an exported function or method that non-test code in another
//     package references: a package's used API is its contract, so what
//     it serves stays even when that caller is itself dead (the caller
//     is reported now, the callee on the run after its removal);
//   - every exported method of a type that non-test code in another
//     package names or calls a method of: whoever holds the value can
//     call any of them, so the set is the type's API (a type nobody
//     outside uses is reported whole, constructor and methods);
//   - a method that satisfies an interface declared outside the module
//     (error, fmt.Stringer, sort.Interface, http.Handler, ...): the
//     standard library calls it through a value, which the graph cannot
//     see.
//
// The module is loaded without its _test.go files, so a helper only
// tests use is reported: delete it with the tests that pin it, move it
// into a _test.go file, or waive it in place with
// `//asvet:allow unreachable -- reason`.
var Unreachable = &Analyzer{
	Name: "unreachable",
	Doc: "functions in internal/... must be reachable from a main, an init, " +
		"or an exported symbol that non-test code outside the package references; " +
		"exported struct fields there must have a non-test writer",
	RunModule: runUnreachable,
}

func runUnreachable(pass *ModulePass) {
	g := pass.Module.Graph
	live := make(map[*CGNode]bool)
	var work []*CGNode
	mark := func(n *CGNode) {
		if n != nil && !live[n] {
			live[n] = true
			work = append(work, n)
		}
	}

	used := typesUsedAbroad(pass.Module)
	for _, n := range g.Nodes {
		switch {
		case n.Decl == nil:
			if n.Name == "<init>" {
				mark(n)
			}
		case n.Decl.Recv == nil && (n.Name == "init" || n.Name == "main" && n.DeclPkg.Types.Name() == "main"):
			mark(n)
		case n.Decl.Name.IsExported():
			recv, _, isMethod := strings.Cut(n.Name, ".")
			if isMethod && used[n.PkgPath+"."+recv] {
				mark(n)
			}
			for _, e := range n.In {
				if e.From.PkgPath != n.PkgPath {
					mark(n)
					break
				}
			}
		}
	}
	for _, fn := range externallyDispatched(pass.Module) {
		mark(g.node(fn))
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range n.Out {
			mark(e.To)
		}
	}

	for _, n := range g.Nodes {
		if n.Decl == nil || live[n] || !strings.Contains(n.PkgPath, "/internal/") {
			continue
		}
		pass.Reportf(n.Decl.Name.Pos(),
			"%s is unreachable: no non-test code reaches it from a main, an init or "+
				"an exported symbol referenced outside its package", n.Name)
	}
	reportUnwrittenFields(pass)
}

// typesUsedAbroad returns "pkgpath.Type" for every type that non-test
// code in another package names or calls a method of.
func typesUsedAbroad(mod *Module) map[string]bool {
	used := make(map[string]bool)
	for _, pkg := range mod.Packages {
		for _, obj := range pkg.Info.Uses {
			if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg() != pkg.Types {
				used[tn.Pkg().Path()+"."+tn.Name()] = true
			}
		}
	}
	for _, n := range mod.Graph.Nodes {
		recv, _, isMethod := strings.Cut(n.Name, ".")
		for _, e := range n.In {
			if isMethod && e.From.PkgPath != n.PkgPath {
				used[n.PkgPath+"."+recv] = true
				break
			}
		}
	}
	return used
}

// externallyDispatched returns the module methods that satisfy an
// interface declared outside the module: every named interface in the
// packages the module imports, plus the universe's error.
func externallyDispatched(mod *Module) []*types.Func {
	inModule := make(map[*types.Package]bool, len(mod.Packages))
	for _, pkg := range mod.Packages {
		inModule[pkg.Types] = true
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	for _, pkg := range mod.Packages {
		for _, imp := range pkg.Types.Imports() {
			if inModule[imp] || seen[imp] {
				continue
			}
			seen[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !ast.IsExported(name) {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	var out []*types.Func
	for _, pkg := range mod.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() > 0 {
				continue // no method of a generic type satisfies a plain interface
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			if mset.Len() == 0 {
				continue
			}
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
						out = append(out, sel.Obj().(*types.Func))
					}
				}
			}
		}
	}
	return out
}

// reportUnwrittenFields is the same argument one level down: an exported
// field of an exported internal/... struct that no non-test code writes
// holds one value in every shipped binary, so each branch on it is
// weight. A write is a composite-literal key (or position), an
// assignment, x.F++ or &x.F; filling in a constant default,
// `if x.F <= 0 { x.F = 0.5 }`, is not. `json:` fields are filled by
// reflection and exempt.
func reportUnwrittenFields(pass *ModulePass) {
	written := make(map[*types.Var]bool)
	for _, pkg := range pass.Module.Packages {
		fieldOf := func(e ast.Expr) *types.Var {
			if sel, ok := unparen(e).(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			id, _ := e.(*ast.Ident)
			if v, ok := pkg.Info.Uses[id].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
			return nil
		}
		defaulted := make(map[ast.Stmt]bool)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					tested := make(map[*types.Var]bool)
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						if e, ok := c.(ast.Expr); ok {
							tested[fieldOf(e)] = true
						}
						return true
					})
					for _, s := range n.Body.List {
						if as, ok := s.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 &&
							tested[fieldOf(as.Lhs[0])] && pkg.Info.Types[as.Rhs[0]].Value != nil {
							defaulted[as] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written[fieldOf(lhs)] = written[fieldOf(lhs)] || !defaulted[n]
					}
				case *ast.IncDecStmt:
					written[fieldOf(n.X)] = true
				case *ast.UnaryExpr: // &x.F: whoever holds the address may write
					written[fieldOf(n.X)] = written[fieldOf(n.X)] || n.Op == token.AND
				case *ast.CompositeLit:
					st := structOf(pkg.Info.TypeOf(n))
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[fieldOf(kv.Key)] = true
						} else if st != nil && i < st.NumFields() {
							written[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	for _, pkg := range pass.Module.Packages {
		if !strings.Contains(pkg.PkgPath, "/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, _ := scope.Lookup(name).(*types.TypeName)
			if tn == nil || !tn.Exported() {
				continue
			}
			st := structOf(tn.Type())
			for i := 0; st != nil && i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !written[f] && !strings.Contains(st.Tag(i), `json:"`) {
					pass.Reportf(f.Pos(), "%s.%s is never written: no non-test code sets it, "+
						"so a shipped binary only ever sees one value", name, f.Name())
				}
			}
		}
	}
}

// structOf returns the struct behind t or, for an elided &T{...}, *t.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
